package conform

import "flag"

// fullSoak selects the paper-scale conformance runs: 100-node rings and
// overlays with the full churn schedules, about 75 s of the suite's
// time. The default run keeps every protocol, every oracle and every
// fault episode kind at a quarter of the population, so tier-1 stays
// fast enough to run on every change; CI runs the full soaks in a job of
// their own.
var fullSoak = flag.Bool("conform.full", false, "run the conformance soaks at full (100-node) scale")
