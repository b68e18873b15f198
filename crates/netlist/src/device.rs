//! Transistors: the only active element in an nMOS process.

use crate::{NodeId, Tech};

/// The two transistor species available in a depletion-load nMOS process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Normally-off device (V_T > 0): pull-downs and pass transistors.
    Enhancement,
    /// Normally-on device (V_T < 0): used with gate tied to source as the
    /// pull-up load of ratioed logic.
    Depletion,
}

impl DeviceKind {
    /// One-letter code used by the `.sim` interchange format
    /// (`e` = enhancement, `d` = depletion).
    #[inline]
    pub fn sim_code(self) -> char {
        match self {
            DeviceKind::Enhancement => 'e',
            DeviceKind::Depletion => 'd',
        }
    }
}

/// One of the three terminals of a MOS transistor.
///
/// Source and drain are symmetric in layout; which is which is a matter of
/// signal-flow direction, decided later by `tv-flow`. The netlist keeps the
/// extractor's arbitrary labeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Terminal {
    /// The insulated control terminal.
    Gate,
    /// First channel terminal (extractor's labeling; electrically
    /// interchangeable with [`Terminal::Drain`]).
    Source,
    /// Second channel terminal.
    Drain,
}

/// A single MOS transistor with drawn geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    pub(crate) name: String,
    pub(crate) kind: DeviceKind,
    pub(crate) gate: NodeId,
    pub(crate) source: NodeId,
    pub(crate) drain: NodeId,
    /// Drawn channel width, µm.
    pub(crate) w_um: f64,
    /// Drawn channel length, µm.
    pub(crate) l_um: f64,
}

impl Device {
    /// The device's name as given at construction.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enhancement or depletion.
    #[inline]
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// The gate node.
    #[inline]
    pub fn gate(&self) -> NodeId {
        self.gate
    }

    /// The first channel terminal node.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The second channel terminal node.
    #[inline]
    pub fn drain(&self) -> NodeId {
        self.drain
    }

    /// Drawn channel width, µm.
    #[inline]
    pub fn width(&self) -> f64 {
        self.w_um
    }

    /// Drawn channel length, µm.
    #[inline]
    pub fn length(&self) -> f64 {
        self.l_um
    }

    /// The node at the given terminal.
    #[inline]
    pub fn terminal(&self, t: Terminal) -> NodeId {
        match t {
            Terminal::Gate => self.gate,
            Terminal::Source => self.source,
            Terminal::Drain => self.drain,
        }
    }

    /// Given one channel terminal, the opposite one.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not one of this device's channel terminals, or
    /// if the channel is shorted (`source == drain` — rejected by netlist
    /// validation, so it cannot occur in a built [`crate::Netlist`]).
    #[inline]
    pub fn other_channel_end(&self, node: NodeId) -> NodeId {
        assert_ne!(
            self.source, self.drain,
            "device {} has a shorted channel",
            self.name
        );
        if node == self.source {
            self.drain
        } else if node == self.drain {
            self.source
        } else {
            panic!("{node} is not a channel terminal of device {}", self.name)
        }
    }

    /// Whether `node` is connected to this device's channel (source or
    /// drain, as opposed to the gate).
    #[inline]
    pub fn channel_touches(&self, node: NodeId) -> bool {
        node == self.source || node == self.drain
    }

    /// Effective switching resistance of this device in the given
    /// technology, kΩ. For depletion devices this is the load (pull-up)
    /// resistance; for enhancement devices the fully-on channel resistance.
    #[inline]
    pub fn resistance(&self, tech: &Tech) -> f64 {
        match self.kind {
            DeviceKind::Enhancement => tech.channel_resistance(self.w_um, self.l_um),
            DeviceKind::Depletion => tech.load_resistance(self.w_um, self.l_um),
        }
    }

    /// Whether this depletion device is wired as a classic load: gate tied
    /// to one of its own channel terminals.
    #[inline]
    pub fn is_load_connected(&self) -> bool {
        self.kind == DeviceKind::Depletion && (self.gate == self.source || self.gate == self.drain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn dev(kind: DeviceKind, g: u32, s: u32, d: u32) -> Device {
        Device {
            name: "m".into(),
            kind,
            gate: NodeId(g),
            source: NodeId(s),
            drain: NodeId(d),
            w_um: 4.0,
            l_um: 2.0,
        }
    }

    #[test]
    fn terminal_lookup_matches_fields() {
        let m = dev(DeviceKind::Enhancement, 5, 6, 7);
        assert_eq!(m.terminal(Terminal::Gate), NodeId(5));
        assert_eq!(m.terminal(Terminal::Source), NodeId(6));
        assert_eq!(m.terminal(Terminal::Drain), NodeId(7));
    }

    #[test]
    fn other_channel_end_flips() {
        let m = dev(DeviceKind::Enhancement, 5, 6, 7);
        assert_eq!(m.other_channel_end(NodeId(6)), NodeId(7));
        assert_eq!(m.other_channel_end(NodeId(7)), NodeId(6));
    }

    #[test]
    #[should_panic(expected = "not a channel terminal")]
    fn other_channel_end_rejects_gate() {
        let m = dev(DeviceKind::Enhancement, 5, 6, 7);
        m.other_channel_end(NodeId(5));
    }

    #[test]
    fn channel_touches_ignores_gate() {
        let m = dev(DeviceKind::Enhancement, 5, 6, 7);
        assert!(m.channel_touches(NodeId(6)));
        assert!(m.channel_touches(NodeId(7)));
        assert!(!m.channel_touches(NodeId(5)));
    }

    #[test]
    fn resistance_uses_the_right_sheet() {
        let t = Tech::nmos4um();
        let e = dev(DeviceKind::Enhancement, 1, 2, 3);
        let d = Device {
            kind: DeviceKind::Depletion,
            ..e.clone()
        };
        assert_eq!(e.resistance(&t), t.channel_resistance(4.0, 2.0));
        assert_eq!(d.resistance(&t), t.load_resistance(4.0, 2.0));
    }

    #[test]
    fn load_connection_detection() {
        // Gate tied to source: classic depletion load.
        let mut d = dev(DeviceKind::Depletion, 6, 6, 0);
        assert!(d.is_load_connected());
        d.kind = DeviceKind::Enhancement;
        assert!(!d.is_load_connected());
    }

    #[test]
    fn sim_codes() {
        assert_eq!(DeviceKind::Enhancement.sim_code(), 'e');
        assert_eq!(DeviceKind::Depletion.sim_code(), 'd');
    }
}
