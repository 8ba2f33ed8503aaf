//go:build !amd64

package atm

// Off amd64 there is no fold kernel: crcUpdate's long runs take the
// reflected path where the standard library has a CRC kernel (ieeeKernel),
// the table loop elsewhere.
const (
	hasFold = false
	foldMin = 0
)

// crcFold is never reached off amd64; it keeps crcUpdate's one dispatch
// compiling on every GOARCH.
func crcFold(crc uint32, p []byte) uint32 { return crcTable(crc, p) }

// crcMoveFold is never reached off amd64; it keeps crcMoveCells' one
// dispatch compiling on every GOARCH.
func crcMoveFold(crc uint32, dst, src []byte, dstStep, srcStep, n int) uint32 {
	return crcMoveThenUpdate(crc, dst, src, dstStep, srcStep, n)
}
