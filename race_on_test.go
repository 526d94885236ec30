//go:build race

package autoncs

// RaceEnabled reports whether the race detector is compiled in. It is
// exported so the external test package sees it too: the golden harness
// skips the minutes-long Lanczos-path compile, and the chained-delta test
// its five deltas (the race coverage of the kernels comes from the
// per-package worker tests and the single-delta tests, which run the same
// code at a fraction of the wall time).
const RaceEnabled = true
