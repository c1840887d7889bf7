// The simulator golden: every deterministic figure the interpreter and the
// machine model produce for the paper's Figure 6 and Figure 7 runs, as one
// JSON document (tests/data/sim_baseline.json).  The document is a pure
// function of the interpreter, the machine model and the compiler, so a
// speed-only change to any of them must reproduce it byte for byte.
#pragma once

#include <string>

namespace polaris {

/// Runs every golden configuration and renders the document:
///   - each of the 16 suite codes untransformed (reference, p=1), and
///     compiled in Polaris and baseline mode at p=1 and p=8 under
///     backend_config;
///   - the Figure 6 TRACK program compiled with the run-time PD test at
///     p=1..8.
/// One run per line: serial and parallel units, statements, parallel
/// instances, speculative attempts and failures, PD-test cost, wasted
/// speculative units, and an FNV-1a hash of the printed output.
std::string sim_baseline_document();

}  // namespace polaris
