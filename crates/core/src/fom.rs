//! The federation object model of the crane simulator.
//!
//! Every module exchanges state through the object and interaction classes
//! declared here, mirroring how the original system routed "event messages"
//! between its seven modules over the Communication Backbone.

use cod_cb::{
    AttributeId, AttributeValues, CbError, ClassRegistry, InteractionClassId, ObjectClassId, Value,
};
use cod_cluster::FrameSyncFom;
use serde::{Deserialize, Serialize};
use sim_math::Vec3;

/// Declares a struct holding one [`AttributeId`] per attribute (or
/// parameter) of a class, each field named after the attribute it holds.
/// The field list is the class's only declaration: `NAMES` lists the same
/// names in the same order for registering the class.
macro_rules! attribute_ids {
    ($(#[$meta:meta])* $name:ident { $($field:ident),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct $name {
            $($field: AttributeId,)+
        }

        impl $name {
            /// The attribute names, in declaration order.
            const NAMES: &'static [&'static str] = &[$(stringify!($field)),+];

            /// Looks every field's attribute up by name with `id_of`.
            ///
            /// # Panics
            ///
            /// Panics if `id_of` does not know one of the names, i.e. the
            /// class was not registered with [`Self::NAMES`].
            fn resolve(id_of: impl Fn(&str) -> Option<AttributeId>) -> $name {
                $name {
                    $($field: id_of(stringify!($field)).unwrap_or_else(|| {
                        panic!("attribute {} is not declared", stringify!($field))
                    }),)+
                }
            }
        }
    };
}

attribute_ids!(
    /// Attribute ids of `CraneState`.
    CraneStateIds {
        chassis_position,
        chassis_yaw,
        chassis_pitch,
        chassis_roll,
        speed,
        engine_intensity,
        slew_angle,
        luff_angle,
        boom_length,
        cable_length,
        boom_tip,
        radius_utilization,
        moment_utilization,
    }
);
attribute_ids!(
    /// Attribute ids of `HookState`.
    HookStateIds { hook_position, cargo_position, swing_angle, cargo_attached, cargo_mass }
);
attribute_ids!(
    /// Attribute ids of `OperatorInput`.
    OperatorInputIds { steering, throttle, brake, reverse, slew, luff, telescope, hoist }
);
attribute_ids!(
    /// Attribute ids of `ScenarioState`.
    ScenarioStateIds { phase, score, elapsed, complete, passed, bar_hits }
);
attribute_ids!(
    /// Parameter ids of `CollisionEvent`.
    CollisionIds { location, impulse, obstacle, scored }
);
attribute_ids!(
    /// Parameter ids of `AlarmEvent`.
    AlarmIds { code, active, message }
);
attribute_ids!(
    /// Parameter ids of `FaultInjection`.
    FaultIds { instrument, value }
);

/// Every attribute and parameter id the message types read and write,
/// resolved by name once in [`CraneFom::register`] so that no frame looks a
/// name up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FomIds {
    crane_state: CraneStateIds,
    hook_state: HookStateIds,
    operator_input: OperatorInputIds,
    scenario_state: ScenarioStateIds,
    collision: CollisionIds,
    alarm: AlarmIds,
    fault: FaultIds,
}

/// Handles to every class the crane simulator declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CraneFom {
    /// Crane chassis + superstructure state published by the dynamics module.
    pub crane_state: ObjectClassId,
    /// Hook / cargo state published by the dynamics module.
    pub hook_state: ObjectClassId,
    /// Operator inputs published by the dashboard module.
    pub operator_input: ObjectClassId,
    /// Scenario phase and score published by the scenario module.
    pub scenario_state: ObjectClassId,
    /// Collision events sent by the dynamics module.
    pub collision: InteractionClassId,
    /// Alarm events sent by the instructor monitor.
    pub alarm: InteractionClassId,
    /// Instrument fault injections sent by the instructor monitor (Figure 6:
    /// "the instrument display may be used for trouble shooting training").
    pub fault: InteractionClassId,
    /// Frame-synchronization interactions of the surround view.
    pub sync: FrameSyncFom,
    ids: FomIds,
}

impl CraneFom {
    /// Declares every class in `registry` and resolves every attribute and
    /// parameter id the message types use.
    ///
    /// # Errors
    ///
    /// Returns an error if any class name is already taken.
    pub fn register(registry: &mut ClassRegistry) -> Result<CraneFom, CbError> {
        let crane_state = registry.register_object_class("CraneState", CraneStateIds::NAMES)?;
        let hook_state = registry.register_object_class("HookState", HookStateIds::NAMES)?;
        let operator_input =
            registry.register_object_class("OperatorInput", OperatorInputIds::NAMES)?;
        let scenario_state =
            registry.register_object_class("ScenarioState", ScenarioStateIds::NAMES)?;
        let collision =
            registry.register_interaction_class("CollisionEvent", CollisionIds::NAMES)?;
        let alarm = registry.register_interaction_class("AlarmEvent", AlarmIds::NAMES)?;
        let fault = registry.register_interaction_class("FaultInjection", FaultIds::NAMES)?;
        let sync = FrameSyncFom::register(registry)?;
        let registry = &*registry;
        let attributes = |class| move |name: &str| registry.attribute_id(class, name);
        let parameters = |class| move |name: &str| registry.parameter_id(class, name);
        let ids = FomIds {
            crane_state: CraneStateIds::resolve(attributes(crane_state)),
            hook_state: HookStateIds::resolve(attributes(hook_state)),
            operator_input: OperatorInputIds::resolve(attributes(operator_input)),
            scenario_state: ScenarioStateIds::resolve(attributes(scenario_state)),
            collision: CollisionIds::resolve(parameters(collision)),
            alarm: AlarmIds::resolve(parameters(alarm)),
            fault: FaultIds::resolve(parameters(fault)),
        };
        Ok(CraneFom {
            crane_state,
            hook_state,
            operator_input,
            scenario_state,
            collision,
            alarm,
            fault,
            sync,
            ids,
        })
    }

    /// Builds the standard registry plus handles in one call.
    pub fn standard() -> (ClassRegistry, CraneFom) {
        let mut registry = ClassRegistry::new();
        let fom = CraneFom::register(&mut registry).expect("fresh registry has no name clashes");
        (registry, fom)
    }
}

fn f64_of(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

fn vec3_of(v: Option<&Value>) -> Vec3 {
    v.and_then(Value::as_vec3).map(Vec3::from).unwrap_or(Vec3::ZERO)
}

fn bool_of(v: Option<&Value>) -> bool {
    v.and_then(Value::as_bool).unwrap_or(false)
}

fn text_of(v: Option<&Value>) -> String {
    v.and_then(Value::as_text).map(str::to_owned).unwrap_or_default()
}

fn u32_of(v: Option<&Value>) -> u32 {
    v.and_then(Value::as_u32).unwrap_or(0)
}

/// Crane state as published by the dynamics module.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CraneStateMsg {
    pub chassis_position: Vec3,
    pub chassis_yaw: f64,
    pub chassis_pitch: f64,
    pub chassis_roll: f64,
    pub speed: f64,
    pub engine_intensity: f64,
    pub slew_angle: f64,
    pub luff_angle: f64,
    pub boom_length: f64,
    pub cable_length: f64,
    pub boom_tip: Vec3,
    pub radius_utilization: f64,
    pub moment_utilization: f64,
}

impl CraneStateMsg {
    /// Encodes into attribute values.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let ids = &fom.ids.crane_state;
        AttributeValues::from([
            (ids.chassis_position, Value::Vec3(self.chassis_position.into())),
            (ids.chassis_yaw, Value::F64(self.chassis_yaw)),
            (ids.chassis_pitch, Value::F64(self.chassis_pitch)),
            (ids.chassis_roll, Value::F64(self.chassis_roll)),
            (ids.speed, Value::F64(self.speed)),
            (ids.engine_intensity, Value::F64(self.engine_intensity)),
            (ids.slew_angle, Value::F64(self.slew_angle)),
            (ids.luff_angle, Value::F64(self.luff_angle)),
            (ids.boom_length, Value::F64(self.boom_length)),
            (ids.cable_length, Value::F64(self.cable_length)),
            (ids.boom_tip, Value::Vec3(self.boom_tip.into())),
            (ids.radius_utilization, Value::F64(self.radius_utilization)),
            (ids.moment_utilization, Value::F64(self.moment_utilization)),
        ])
    }

    /// Decodes from attribute values (missing attributes default to zero).
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> CraneStateMsg {
        let ids = &fom.ids.crane_state;
        CraneStateMsg {
            chassis_position: vec3_of(values.get(&ids.chassis_position)),
            chassis_yaw: f64_of(values.get(&ids.chassis_yaw)),
            chassis_pitch: f64_of(values.get(&ids.chassis_pitch)),
            chassis_roll: f64_of(values.get(&ids.chassis_roll)),
            speed: f64_of(values.get(&ids.speed)),
            engine_intensity: f64_of(values.get(&ids.engine_intensity)),
            slew_angle: f64_of(values.get(&ids.slew_angle)),
            luff_angle: f64_of(values.get(&ids.luff_angle)),
            boom_length: f64_of(values.get(&ids.boom_length)),
            cable_length: f64_of(values.get(&ids.cable_length)),
            boom_tip: vec3_of(values.get(&ids.boom_tip)),
            radius_utilization: f64_of(values.get(&ids.radius_utilization)),
            moment_utilization: f64_of(values.get(&ids.moment_utilization)),
        }
    }
}

/// Hook and cargo state as published by the dynamics module.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HookStateMsg {
    pub hook_position: Vec3,
    pub cargo_position: Vec3,
    pub swing_angle: f64,
    pub cargo_attached: bool,
    pub cargo_mass: f64,
}

impl HookStateMsg {
    /// Encodes into attribute values.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let ids = &fom.ids.hook_state;
        AttributeValues::from([
            (ids.hook_position, Value::Vec3(self.hook_position.into())),
            (ids.cargo_position, Value::Vec3(self.cargo_position.into())),
            (ids.swing_angle, Value::F64(self.swing_angle)),
            (ids.cargo_attached, Value::Bool(self.cargo_attached)),
            (ids.cargo_mass, Value::F64(self.cargo_mass)),
        ])
    }

    /// Decodes from attribute values.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> HookStateMsg {
        let ids = &fom.ids.hook_state;
        HookStateMsg {
            hook_position: vec3_of(values.get(&ids.hook_position)),
            cargo_position: vec3_of(values.get(&ids.cargo_position)),
            swing_angle: f64_of(values.get(&ids.swing_angle)),
            cargo_attached: bool_of(values.get(&ids.cargo_attached)),
            cargo_mass: f64_of(values.get(&ids.cargo_mass)),
        }
    }
}

/// Operator inputs as published by the dashboard module.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OperatorInputMsg {
    pub steering: f64,
    pub throttle: f64,
    pub brake: f64,
    pub reverse: bool,
    pub slew: f64,
    pub luff: f64,
    pub telescope: f64,
    pub hoist: f64,
}

impl OperatorInputMsg {
    /// Encodes into attribute values.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let ids = &fom.ids.operator_input;
        AttributeValues::from([
            (ids.steering, Value::F64(self.steering)),
            (ids.throttle, Value::F64(self.throttle)),
            (ids.brake, Value::F64(self.brake)),
            (ids.reverse, Value::Bool(self.reverse)),
            (ids.slew, Value::F64(self.slew)),
            (ids.luff, Value::F64(self.luff)),
            (ids.telescope, Value::F64(self.telescope)),
            (ids.hoist, Value::F64(self.hoist)),
        ])
    }

    /// Decodes from attribute values.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> OperatorInputMsg {
        let ids = &fom.ids.operator_input;
        OperatorInputMsg {
            steering: f64_of(values.get(&ids.steering)),
            throttle: f64_of(values.get(&ids.throttle)),
            brake: f64_of(values.get(&ids.brake)),
            reverse: bool_of(values.get(&ids.reverse)),
            slew: f64_of(values.get(&ids.slew)),
            luff: f64_of(values.get(&ids.luff)),
            telescope: f64_of(values.get(&ids.telescope)),
            hoist: f64_of(values.get(&ids.hoist)),
        }
    }
}

/// Scenario phase and score as published by the scenario module.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioStateMsg {
    pub phase: String,
    pub score: f64,
    pub elapsed: f64,
    pub complete: bool,
    pub passed: bool,
    pub bar_hits: u32,
}

impl ScenarioStateMsg {
    /// Encodes into attribute values.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let ids = &fom.ids.scenario_state;
        AttributeValues::from([
            (ids.phase, Value::Text(self.phase.clone())),
            (ids.score, Value::F64(self.score)),
            (ids.elapsed, Value::F64(self.elapsed)),
            (ids.complete, Value::Bool(self.complete)),
            (ids.passed, Value::Bool(self.passed)),
            (ids.bar_hits, Value::U32(self.bar_hits)),
        ])
    }

    /// Decodes from attribute values.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> ScenarioStateMsg {
        let ids = &fom.ids.scenario_state;
        ScenarioStateMsg {
            phase: text_of(values.get(&ids.phase)),
            score: f64_of(values.get(&ids.score)),
            elapsed: f64_of(values.get(&ids.elapsed)),
            complete: bool_of(values.get(&ids.complete)),
            passed: bool_of(values.get(&ids.passed)),
            bar_hits: u32_of(values.get(&ids.bar_hits)),
        }
    }
}

/// A collision event sent by the dynamics module.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CollisionMsg {
    pub location: Vec3,
    pub impulse: f64,
    pub obstacle: String,
    pub scored: bool,
}

impl CollisionMsg {
    /// Encodes into interaction parameters.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let ids = &fom.ids.collision;
        AttributeValues::from([
            (ids.location, Value::Vec3(self.location.into())),
            (ids.impulse, Value::F64(self.impulse)),
            (ids.obstacle, Value::Text(self.obstacle.clone())),
            (ids.scored, Value::Bool(self.scored)),
        ])
    }

    /// Decodes from interaction parameters.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> CollisionMsg {
        let ids = &fom.ids.collision;
        CollisionMsg {
            location: vec3_of(values.get(&ids.location)),
            impulse: f64_of(values.get(&ids.impulse)),
            obstacle: text_of(values.get(&ids.obstacle)),
            scored: bool_of(values.get(&ids.scored)),
        }
    }
}

/// An alarm raised (or cleared) by the instructor monitor.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AlarmMsg {
    pub code: u32,
    pub active: bool,
    pub message: String,
}

/// Well-known alarm codes of the Status window (Figure 5).
pub mod alarm_codes {
    /// Derrick boom outside the safety zone.
    pub const SAFETY_ZONE: u32 = 1;
    /// Load moment above 90 % of the rated moment.
    pub const OVERLOAD: u32 = 2;
    /// A scored obstacle (bar) was struck.
    pub const BAR_COLLISION: u32 = 3;
    /// The chassis roll/pitch indicates a tip-over risk while driving.
    pub const TIP_OVER: u32 = 4;
}

impl AlarmMsg {
    /// Encodes into interaction parameters.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let ids = &fom.ids.alarm;
        AttributeValues::from([
            (ids.code, Value::U32(self.code)),
            (ids.active, Value::Bool(self.active)),
            (ids.message, Value::Text(self.message.clone())),
        ])
    }

    /// Decodes from interaction parameters.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> AlarmMsg {
        let ids = &fom.ids.alarm;
        AlarmMsg {
            code: u32_of(values.get(&ids.code)),
            active: bool_of(values.get(&ids.active)),
            message: text_of(values.get(&ids.message)),
        }
    }
}

/// A fault injected by the instructor into a dashboard instrument.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultMsg {
    /// Name of the instrument (e.g. "speedometer").
    pub instrument: String,
    /// Value the instrument is forced to display.
    pub value: f64,
}

impl FaultMsg {
    /// Encodes into interaction parameters.
    pub fn to_values(&self, fom: &CraneFom) -> AttributeValues {
        let ids = &fom.ids.fault;
        AttributeValues::from([
            (ids.instrument, Value::Text(self.instrument.clone())),
            (ids.value, Value::F64(self.value)),
        ])
    }

    /// Decodes from interaction parameters.
    pub fn from_values(fom: &CraneFom, values: &AttributeValues) -> FaultMsg {
        let ids = &fom.ids.fault;
        FaultMsg {
            instrument: text_of(values.get(&ids.instrument)),
            value: f64_of(values.get(&ids.value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_cb::{ChannelId, ObjectId, WireMessage};
    use cod_net::Micros;

    #[test]
    fn fom_registers_all_classes() {
        let (registry, fom) = CraneFom::standard();
        assert!(registry.object_class_count() >= 4);
        assert!(registry.interaction_class_count() >= 5);
        assert!(registry.contains_object_class(fom.crane_state));
        assert!(registry.contains_interaction_class(fom.collision));
    }

    fn sample_crane_state() -> CraneStateMsg {
        CraneStateMsg {
            chassis_position: Vec3::new(1.0, 2.0, 3.0),
            chassis_yaw: 0.5,
            chassis_pitch: -0.1,
            chassis_roll: 0.05,
            speed: 4.2,
            engine_intensity: 0.7,
            slew_angle: 1.1,
            luff_angle: 0.8,
            boom_length: 14.0,
            cable_length: 6.5,
            boom_tip: Vec3::new(2.0, 12.0, 5.0),
            radius_utilization: 0.6,
            moment_utilization: 0.4,
        }
    }

    #[test]
    fn crane_state_roundtrips() {
        let (_, fom) = CraneFom::standard();
        let msg = sample_crane_state();
        let values = msg.to_values(&fom);
        assert_eq!(CraneStateMsg::from_values(&fom, &values), msg);
    }

    /// [`sample_crane_state`] pushed as one update: every attribute in
    /// declaration order, exactly the bytes the CB puts on the LAN.
    const CRANE_STATE_UPDATE: &str =
        "050000000300000001000000040000000000000000000000103664000d0000033ff0000000000000\
         400000000000000040080000000000000001023fe0000000000000000202bfb999999999999a0003\
         023fa999999999999a0004024010cccccccccccd0005023fe66666666666660006023ff199999999\
         999a0007023fe999999999999a000802402c000000000000000902401a000000000000000a034000\
         00000000000040280000000000004014000000000000000b023fe3333333333333000c023fd99999\
         9999999a";

    fn crane_state_update_hex(fom: &CraneFom) -> String {
        let update = WireMessage::UpdateAttributes {
            channel: ChannelId(0x0003_0000_0001),
            object: ObjectId(0x0004_0000_0000),
            class: fom.crane_state,
            timestamp: Micros(1_062_500),
            values: sample_crane_state().to_values(fom),
        };
        update.encode().iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn crane_state_update_encodes_to_its_golden_bytes() {
        let (_, fom) = CraneFom::standard();
        let encoded = crane_state_update_hex(&fom);
        assert_eq!(encoded, CRANE_STATE_UPDATE);
        // A one-byte edit of the golden string must not pass.
        for i in (0..CRANE_STATE_UPDATE.len()).step_by(2) {
            let mut edited = CRANE_STATE_UPDATE.to_owned();
            let flipped = if &edited[i..i + 2] == "00" { "01" } else { "00" };
            edited.replace_range(i..i + 2, flipped);
            assert_ne!(encoded, edited, "edit of byte {} went unnoticed", i / 2);
        }
    }

    #[test]
    fn remaining_messages_roundtrip() {
        let (_, fom) = CraneFom::standard();
        let hook = HookStateMsg {
            hook_position: Vec3::new(0.0, 5.0, 1.0),
            cargo_position: Vec3::new(0.0, 1.0, 1.0),
            swing_angle: 0.2,
            cargo_attached: true,
            cargo_mass: 1500.0,
        };
        assert_eq!(HookStateMsg::from_values(&fom, &hook.to_values(&fom)), hook);

        let input = OperatorInputMsg {
            steering: -0.3,
            throttle: 0.9,
            reverse: true,
            hoist: -0.5,
            ..Default::default()
        };
        assert_eq!(OperatorInputMsg::from_values(&fom, &input.to_values(&fom)), input);

        let scenario = ScenarioStateMsg {
            phase: "Traverse".into(),
            score: 80.0,
            elapsed: 125.0,
            complete: false,
            passed: false,
            bar_hits: 2,
        };
        assert_eq!(ScenarioStateMsg::from_values(&fom, &scenario.to_values(&fom)), scenario);

        let collision = CollisionMsg {
            location: Vec3::unit_x(),
            impulse: 3.0,
            obstacle: "bar-1".into(),
            scored: true,
        };
        assert_eq!(CollisionMsg::from_values(&fom, &collision.to_values(&fom)), collision);

        let alarm =
            AlarmMsg { code: alarm_codes::OVERLOAD, active: true, message: "overload".into() };
        assert_eq!(AlarmMsg::from_values(&fom, &alarm.to_values(&fom)), alarm);

        let fault = FaultMsg { instrument: "speedometer".into(), value: 55.0 };
        assert_eq!(FaultMsg::from_values(&fom, &fault.to_values(&fom)), fault);
    }

    #[test]
    fn missing_attributes_default_to_zero() {
        let (_, fom) = CraneFom::standard();
        let empty = AttributeValues::new();
        let msg = CraneStateMsg::from_values(&fom, &empty);
        assert_eq!(msg.speed, 0.0);
        assert_eq!(msg.chassis_position, Vec3::ZERO);
    }
}
