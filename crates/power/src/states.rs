//! Core power states.

/// The power state of one core, as seen by the power model and DPM.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum PowerState {
    /// Executing threads.
    Active,
    /// Powered but with an empty run queue.
    #[default]
    Idle,
    /// Put to sleep by DPM (0.02 W in the paper).
    Sleep,
}

impl PowerState {
    /// Short label for reports.
    pub(crate) fn label(self) -> &'static str {
        match self {
            PowerState::Active => "active",
            PowerState::Idle => "idle",
            PowerState::Sleep => "sleep",
        }
    }
}

impl core::fmt::Display for PowerState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_default() {
        assert_eq!(PowerState::Active.label(), "active");
        assert_eq!(PowerState::Sleep.to_string(), "sleep");
        assert_eq!(PowerState::default(), PowerState::Idle);
    }
}
