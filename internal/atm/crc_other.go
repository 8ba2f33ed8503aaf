//go:build !amd64

package atm

// Off amd64 there is no fold kernel: crcUpdate's long runs take the
// reflected path where the standard library has a CRC kernel (ieeeKernel),
// the table loop elsewhere, and the cell loops take the portable path.
const hasFold = false

// The fold kernels are never reached off amd64; these keep the one
// dispatch in segmentCells, reassembleCells and foldRun
// compiling on every GOARCH.

func foldBlocks(acc *crcAcc, p []byte) uint32 { panic("atm: no fold kernel") }

func foldSegment(acc *crcAcc, dst, src []byte, n int, h *cellHeaders, last bool) {
	panic("atm: no fold kernel")
}

func foldReassemble(acc *crcAcc, dst, src []byte, n int, h *cellHeaders) (int, uint32, bool) {
	panic("atm: no fold kernel")
}
