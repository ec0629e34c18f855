//! Compiler settings. The baseline emitter has no tunables, so the only
//! accepted names are the ones callers in this repository set.

use std::fmt;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetError {
    BadName(String),
    BadValue(String),
}

impl fmt::Display for SetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetError::BadName(n) => write!(f, "no setting named {n:?}"),
            SetError::BadValue(v) => write!(f, "bad setting value {v:?}"),
        }
    }
}

impl std::error::Error for SetError {}

pub trait Configurable {
    fn set(&mut self, name: &str, value: &str) -> Result<(), SetError>;
}

#[derive(Debug, Clone, Default)]
pub struct Builder;

pub fn builder() -> Builder {
    Builder
}

impl Configurable for Builder {
    fn set(&mut self, name: &str, value: &str) -> Result<(), SetError> {
        match (name, value) {
            // Accepted and ignored: there is one code quality.
            ("opt_level", "none" | "speed" | "speed_and_size") => Ok(()),
            ("opt_level", v) => Err(SetError::BadValue(v.into())),
            (n, _) => Err(SetError::BadName(n.into())),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Flags;

impl Flags {
    pub fn new(_builder: Builder) -> Flags {
        Flags
    }
}
