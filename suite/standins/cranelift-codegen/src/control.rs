//! `ControlPlane` exists in the published crate to steer fuzzing; here it
//! only has to be constructible.

#[derive(Debug, Default, Clone)]
pub struct ControlPlane;
