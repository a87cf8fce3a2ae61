//! Audio substrate for the mobile-crane simulator.
//!
//! The original audio module used Microsoft DirectSound to produce "the static
//! sound, such as the background noise, as well as the dynamic sound effect,
//! such as collision sound or motor working noise" (paper §3.7). An OS sound
//! API is not available here, so this crate provides a deterministic software
//! mixer with the same observable behaviour: continuous (static) sources,
//! one-shot (dynamic) effects triggered by simulation events, distance
//! attenuation relative to a listener, and rendered sample buffers the audio
//! module can inspect or hand to any output device.
//!
//! # The audio contract
//!
//! [`Waveform::sample`] is the reference: one `sin` per partial per sample.
//! The mixer renders through [`SoundSource::mix_into`], which synthesizes a
//! block with phasor oscillators. Its samples stay within 2e-9 of the reference
//! over a 900 s session, but they are not bit-identical to it. That is
//! allowed because audio feeds no fingerprint: no rendered sample or level
//! reaches a telemetry digest or a fingerprinted report.

pub mod event;
pub mod mixer;
pub mod source;

pub use event::SoundEvent;
pub use mixer::{Mixer, RenderedBlock};
pub use source::{SoundSource, SourceId, SourceKind, Waveform};
