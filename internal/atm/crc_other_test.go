//go:build !amd64

package atm

// foldKernels is empty: off amd64 there is no fold.
func foldKernels() []crcKernel { return nil }

// cellPaths lists the cell-loop paths this host runs: off amd64, the
// portable path alone.
func cellPaths() []cellPath { return []cellPath{{"portable", false}} }

// run calls f: off amd64 the portable path is the only one.
func (p cellPath) run(f func()) { f() }
