//! Two-phase registers and register files.
//!
//! The 1983 storage idiom: a master dynamic latch sampled on φ1 and a
//! slave sampled on φ2 make an edge-equivalent register; a file of them
//! reads onto shared buses through pass gates.

use tv_netlist::{NetlistBuilder, NodeId, Tech};

use crate::Circuit;

/// Adds one master–slave register bit: `d` is sampled into the master
/// while `phi1` is high; the master's restored output is sampled into the
/// slave while `phi2` is high. Returns the slave's restored output
/// (`q`, the value of `d` one full cycle earlier, inverted twice).
pub fn register_bit(
    b: &mut NetlistBuilder,
    name: &str,
    phi1: NodeId,
    phi2: NodeId,
    d: NodeId,
) -> NodeId {
    let m_out = b.node(format!("{name}_m"));
    b.dynamic_latch(format!("{name}_master"), phi1, d, m_out);
    let q = b.node(format!("{name}_q"));
    b.dynamic_latch(format!("{name}_slave"), phi2, m_out, q);
    q
}

/// Adds a register file of `regs` registers × `width` bits with one shared
/// read bus per bit line. Each register drives the bus through a read
/// pass gate controlled by its (externally driven) `rd<r>` select; writes
/// come from the shared `w<i>` bit lines through the registers' own
/// clocked latches gated by `we<r>`-qualified φ1.
///
/// Returns the per-bit read bus nodes.
#[allow(clippy::too_many_arguments)] // ports of a hardware block, not a config soup
pub fn regfile_into(
    b: &mut NetlistBuilder,
    name: &str,
    phi1: NodeId,
    phi2: NodeId,
    write_bits: &[NodeId],
    regs: usize,
    read_selects: &[NodeId],
    write_qualified_phi1: &[NodeId],
) -> Vec<NodeId> {
    assert_eq!(read_selects.len(), regs, "one read select per register");
    assert_eq!(
        write_qualified_phi1.len(),
        regs,
        "one qualified write clock per register"
    );
    let width = write_bits.len();
    let bus: Vec<NodeId> = (0..width)
        .map(|i| b.node(format!("{name}_bus{i}")))
        .collect();
    for (&node, _) in bus.iter().zip(0..) {
        // Bus wiring capacitance proportional to the number of taps.
        b.add_cap(node, 0.01 * regs as f64).expect("cap >= 0");
    }
    for r in 0..regs {
        for (i, &w) in write_bits.iter().enumerate() {
            let bitname = format!("{name}_r{r}_b{i}");
            // Master gated by this register's qualified φ1; slave by φ2.
            let m_out = b.node(format!("{bitname}_m"));
            b.dynamic_latch(
                format!("{bitname}_master"),
                write_qualified_phi1[r],
                w,
                m_out,
            );
            let q = b.node(format!("{bitname}_q"));
            b.dynamic_latch(format!("{bitname}_slave"), phi2, m_out, q);
            // Read port: pass gate from the restored q onto the bus.
            b.pass(format!("{bitname}_rd"), read_selects[r], q, bus[i]);
        }
    }
    let _ = (phi1, phi2);
    bus
}

/// A standalone register file circuit: `regs` × `width`, primary inputs
/// `w0..` (write data), `rd0..` (read selects), clocks `phi1`/`phi2`, and
/// per-register write enables folded into qualified clocks `wq0..`
/// (driven externally in experiments). Outputs `q0..` restore the bus.
///
/// The [`Circuit`] handles are `w0` → `q0`.
///
/// # Panics
///
/// Panics if `regs == 0` or `width == 0`.
pub fn register_file(tech: Tech, regs: usize, width: usize) -> Circuit {
    assert!(
        regs > 0 && width > 0,
        "register file needs registers and bits"
    );
    let mut b = NetlistBuilder::new(tech);
    let phi1 = b.clock("phi1", 0);
    let phi2 = b.clock("phi2", 1);
    let write_bits: Vec<NodeId> = (0..width).map(|i| b.input(format!("w{i}"))).collect();
    let read_selects: Vec<NodeId> = (0..regs).map(|r| b.input(format!("rd{r}"))).collect();
    // Qualified write clocks: wq<r> = we<r> ∧ φ1.
    let wq: Vec<NodeId> = (0..regs)
        .map(|r| {
            let we = b.input(format!("we{r}"));
            let nq = b.node(format!("wqbar{r}"));
            b.nand(format!("wqgate{r}"), &[we, phi1], nq);
            let wqn = b.node(format!("wq{r}"));
            b.inverter(format!("wqinv{r}"), nq, wqn);
            wqn
        })
        .collect();
    let bus = regfile_into(
        &mut b,
        "rf",
        phi1,
        phi2,
        &write_bits,
        regs,
        &read_selects,
        &wq,
    );
    for (i, &line) in bus.iter().enumerate() {
        let q = b.output(format!("q{i}"));
        b.inverter(format!("rcv{i}"), line, q);
    }
    let netlist = b.finish().expect("register file generator is valid");
    let input = netlist.node_by_name("w0").expect("w0 exists");
    let output = netlist.node_by_name("q0").expect("q0 exists");
    Circuit {
        netlist,
        input,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tv_flow::{analyze, NodeClass, RuleSet};
    use tv_netlist::validate;

    #[test]
    fn register_bit_structure() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let phi2 = b.clock("phi2", 1);
        let d = b.input("d");
        let q = register_bit(&mut b, "r", phi1, phi2, d);
        let nl = b.finish().unwrap();
        // 2 latches × (pass + inverter) = 6 devices.
        assert_eq!(nl.device_count(), 6);
        assert_eq!(nl.node_name(q), "r_q");
    }

    #[test]
    fn storage_nodes_are_classified_storage() {
        let mut b = NetlistBuilder::new(Tech::nmos4um());
        let phi1 = b.clock("phi1", 0);
        let phi2 = b.clock("phi2", 1);
        let d = b.input("d");
        register_bit(&mut b, "r", phi1, phi2, d);
        let nl = b.finish().unwrap();
        let flow = analyze(&nl, &RuleSet::all());
        let master_mem = nl.node_by_name("r_master_mem").unwrap();
        let slave_mem = nl.node_by_name("r_slave_mem").unwrap();
        assert_eq!(flow.node_class(master_mem), NodeClass::Storage);
        assert_eq!(flow.node_class(slave_mem), NodeClass::Storage);
    }

    #[test]
    fn regfile_device_count() {
        let (regs, width) = (4, 8);
        let c = register_file(Tech::nmos4um(), regs, width);
        // Per bit-cell: master (3) + slave (3) + read pass (1) = 7; plus
        // `width` bus receivers (2 each) and per-register write
        // qualification (NAND2 = 3, inverter = 2).
        assert_eq!(
            c.netlist.device_count(),
            regs * width * 7 + width * 2 + regs * 5
        );
    }

    #[test]
    fn regfile_validates_cleanly() {
        let c = register_file(Tech::nmos4um(), 2, 4);
        let issues = validate::check(&c.netlist);
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn bus_lines_have_tap_proportional_cap() {
        let small = register_file(Tech::nmos4um(), 2, 2);
        let big = register_file(Tech::nmos4um(), 8, 2);
        let cb_small = small.netlist.node_cap(small.node("rf_bus0"));
        let cb_big = big.netlist.node_cap(big.node("rf_bus0"));
        assert!(cb_big > cb_small);
    }

    #[test]
    fn read_paths_resolve_onto_bus() {
        let c = register_file(Tech::nmos4um(), 4, 2);
        let flow = analyze(&c.netlist, &RuleSet::all());
        let report = flow.report(&c.netlist);
        assert_eq!(report.unresolved, 0, "{report}");
    }
}
