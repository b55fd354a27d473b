// Package experiments holds the configuration of the Section 6
// evaluation: the GT-ITM-style transit-stub underlay, the random overlay
// over it, and the paper-scale and scaled-down settings. The substrate is
// the deterministic discrete-event simulator instead of the authors'
// Emulab testbed (see DESIGN.md for the substitution argument), so
// absolute numbers differ but the comparative shapes hold.
//
// The figures themselves are the package's test, TestWork: one table
// whose rows are the paper's workloads — each shipped program under
// Central and the simnet Cluster (PSN and SN), plain and with aggregate
// selections, periodic selections, message sharing and magic sets where
// they apply — and whose output is exact work counts in
// testdata/work/*.golden. Figs 7–14's claims are assertions over those
// rows. The wall-clock measurements live in the bench/ module.
package experiments

import "ndlog/internal/topology"

// Config parameterizes one experiment run.
type Config struct {
	// Topology is the GT-ITM-style underlay (Section 6.1).
	Topology topology.TransitStubParams
	// OverlayDegree is the number of random neighbors per node.
	OverlayDegree int
	// Seed drives topology, metrics and loss determinism.
	Seed int64
	// ProcDelay is the per-message sender-side processing cost.
	ProcDelay float64
	// MaxEvents bounds each simulation run.
	MaxEvents int
}

// Default returns the paper-scale configuration: 100 nodes, overlay
// degree 4 (Section 6.1).
func Default() Config {
	return Config{
		Topology:      topology.DefaultTransitStub(),
		OverlayDegree: 4,
		Seed:          1,
		ProcDelay:     0.002,
		MaxEvents:     50_000_000,
	}
}

// Small returns a scaled-down configuration (14 nodes) for tests and
// benchmarks.
func Small() Config {
	return Config{
		Topology: topology.TransitStubParams{
			Transits: 2, StubsPerTrans: 2, NodesPerStub: 3,
			TransitLatency: 0.050, StubLatency: 0.010, IntraLatency: 0.002,
		},
		OverlayDegree: 3,
		Seed:          1,
		ProcDelay:     0.002,
		MaxEvents:     5_000_000,
	}
}

// BuildOverlay constructs the experiment overlay for a configuration.
func BuildOverlay(cfg Config) *topology.Overlay {
	u := topology.TransitStub(cfg.Topology)
	return topology.NewOverlay(u, cfg.OverlayDegree, cfg.Seed)
}
