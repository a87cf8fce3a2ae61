//! The audio module (paper §3.7) as a Logical Process.
//!
//! Produces the static background noise of the construction site plus the
//! dynamic effects — engine load, hoist/slew motor whine, collision clangs,
//! alarm beeps — by driving the `audio-sim` mixer from the reflected state and
//! the interactions broadcast by the other modules.

use audio_sim::{Mixer, SoundEvent};
use cod_cb::{CbApi, CbError, ClassRegistry};
use cod_cluster::LogicalProcess;
use cod_net::Micros;

use crate::fom::{AlarmMsg, CollisionMsg, CraneFom, CraneStateMsg, OperatorInputMsg};
use crate::telemetry::SharedTelemetry;

/// The audio Logical Process.
pub struct AudioLp {
    fom: CraneFom,
    telemetry: SharedTelemetry,
    mixer: Mixer,
    crane: CraneStateMsg,
    input: OperatorInputMsg,
    collisions_heard: u64,
}

impl AudioLp {
    /// Creates the audio module.
    ///
    /// `_registry` is not read: `fom` holds every attribute id the module uses.
    pub fn new(_registry: ClassRegistry, fom: CraneFom, telemetry: SharedTelemetry) -> AudioLp {
        let mut mixer = Mixer::new(11_025);
        mixer.add_background_noise();
        AudioLp {
            fom,
            telemetry,
            mixer,
            crane: CraneStateMsg::default(),
            input: OperatorInputMsg::default(),
            collisions_heard: 0,
        }
    }

    /// Number of collision sounds triggered so far.
    pub fn collisions_heard(&self) -> u64 {
        self.collisions_heard
    }
}

impl LogicalProcess for AudioLp {
    fn name(&self) -> &str {
        "audio"
    }

    fn init(&mut self, cb: &mut dyn CbApi) -> Result<(), CbError> {
        cb.subscribe_object_class(self.fom.crane_state)?;
        cb.subscribe_object_class(self.fom.operator_input)?;
        cb.subscribe_interaction_class(self.fom.collision)?;
        cb.subscribe_interaction_class(self.fom.alarm)?;
        Ok(())
    }

    fn step(&mut self, cb: &mut dyn CbApi, dt: f64) -> Result<(), CbError> {
        for reflection in cb.reflections() {
            if reflection.class == self.fom.crane_state {
                self.crane = CraneStateMsg::from_values(&self.fom, &reflection.values);
            } else if reflection.class == self.fom.operator_input {
                self.input = OperatorInputMsg::from_values(&self.fom, &reflection.values);
            }
        }
        for interaction in cb.interactions() {
            if interaction.class == self.fom.collision {
                let collision = CollisionMsg::from_values(&self.fom, &interaction.parameters);
                self.collisions_heard += 1;
                self.mixer.handle_event(SoundEvent::Collision {
                    location: collision.location,
                    impulse: collision.impulse,
                });
            } else if interaction.class == self.fom.alarm {
                let alarm = AlarmMsg::from_values(&self.fom, &interaction.parameters);
                self.mixer.handle_event(SoundEvent::Alarm { active: alarm.active });
            }
        }

        // Continuous sources follow the reflected state.
        self.mixer.set_listener(self.crane.chassis_position);
        self.mixer.handle_event(SoundEvent::EngineLoad { intensity: self.crane.engine_intensity });
        let motor_active = self.input.slew.abs() > 0.05
            || self.input.luff.abs() > 0.05
            || self.input.telescope.abs() > 0.05
            || self.input.hoist.abs() > 0.05;
        self.mixer.handle_event(SoundEvent::MotorWorking { active: motor_active });

        let rms = self.mixer.render(dt.min(0.25)).rms();
        self.telemetry.update(|t| t.audio_rms = rms);
        Ok(())
    }

    fn last_step_cost(&self) -> Micros {
        Micros::from_millis(3)
    }

    fn begin_session(&mut self, _cb: &mut dyn CbApi, _seed: u64) -> Result<(), CbError> {
        let mut mixer = Mixer::new(11_025);
        mixer.add_background_noise();
        self.mixer = mixer;
        self.crane = CraneStateMsg::default();
        self.input = OperatorInputMsg::default();
        self.collisions_heard = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cod_cluster::{Cluster, ClusterConfig};

    #[test]
    fn audio_module_produces_background_sound_in_a_cluster() {
        let (registry, fom) = CraneFom::standard();
        let telemetry = SharedTelemetry::new();
        let mut cluster = Cluster::new(ClusterConfig::default(), registry.clone());
        let pc = cluster.add_computer("audio-pc");
        cluster.add_lp(pc, Box::new(AudioLp::new(registry, fom, telemetry.clone()))).unwrap();
        cluster.initialize().unwrap();
        cluster.run_frames(5).unwrap();
        assert!(telemetry.snapshot().audio_rms > 0.001, "background noise should be audible");
    }

    #[test]
    fn fresh_module_has_heard_no_collisions() {
        let (registry, fom) = CraneFom::standard();
        let lp = AudioLp::new(registry, fom, SharedTelemetry::new());
        assert_eq!(lp.collisions_heard(), 0);
    }
}
