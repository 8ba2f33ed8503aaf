// Command atmtrace is an AAL5/cell inspector: it segments a payload into
// ATM cells, dumps them, optionally injects corruption, and reassembles —
// a debugging lens on the cell layer everything else rides on. It runs the
// wire-form path the carriers ship: AppendCells, then PushWire.
//
// Usage:
//
//	atmtrace -size 200                 # segment 200 deterministic bytes
//	atmtrace -text "hello ATM"         # segment a literal payload
//	atmtrace -size 200 -corrupt 3      # flip a bit in cell 3, show detection
//	atmtrace -size 200 -vpi 1 -vci 42  # choose the virtual channel
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/atm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "atmtrace:", err)
		os.Exit(1)
	}
}

// run is the command on its arguments, writing the dump to w. A bad flag
// exits as the flag package does.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("atmtrace", flag.ExitOnError)
	size := fs.Int("size", 96, "payload size in bytes (ignored if -text set)")
	text := fs.String("text", "", "literal payload")
	vpi := fs.Int("vpi", 0, "virtual path identifier")
	vci := fs.Int("vci", 100, "virtual channel identifier")
	corrupt := fs.Int("corrupt", -1, "cell index to corrupt before reassembly (-1 = none)")
	fs.Parse(args)

	payload := []byte(*text)
	if len(payload) == 0 {
		payload = make([]byte, *size)
		for i := range payload {
			payload[i] = byte(i)
		}
	}
	vc := atm.VC{VPI: uint8(*vpi), VCI: uint16(*vci)}

	cells, err := atm.AppendCells(nil, vc, payload)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	n := len(cells) / atm.CellSize
	if *corrupt >= n {
		return fmt.Errorf("-corrupt %d: the frame has %d cells", *corrupt, n)
	}
	fmt.Fprintf(w, "payload %d bytes -> %d cells on VC %v (CPCS-PDU %d bytes incl. pad+trailer)\n\n",
		len(payload), n, vc, n*atm.PayloadSize)

	for i := 0; i < n; i++ {
		cell := cells[i*atm.CellSize : (i+1)*atm.CellSize]
		h, _ := atm.DecodeHeader(cell) // AppendCells' headers pass HEC
		eof := " "
		if h.EndOfFrame() {
			eof = "*"
		}
		fmt.Fprintf(w, "cell %2d %s vpi=%-3d vci=%-5d pt=%d clp=%-5v hec=%02x  payload[0:16]=% x\n",
			i, eof, h.VPI, h.VCI, h.PT, h.CLP, cell[4], cell[atm.HeaderSize:atm.HeaderSize+16])
	}
	fmt.Fprintln(w, "\n(* = AAL5 end-of-frame indication in PT)")

	if *corrupt >= 0 {
		fmt.Fprintf(w, "\nflipping one payload bit in cell %d ...\n", *corrupt)
		cells[*corrupt*atm.CellSize+atm.HeaderSize+7] ^= 0x10
	}

	// The cells are one frame, so PushWire takes them all and either
	// completes it or rejects it at its last cell.
	_, out, _, err := atm.NewReassembler(vc).PushWire(cells)
	if err != nil {
		fmt.Fprintf(w, "reassembly: REJECTED (%v) — corruption detected by AAL5 CRC-32\n", err)
		return nil
	}
	fmt.Fprintf(w, "reassembly: OK, %d bytes recovered, payload intact=%v\n", len(out), bytes.Equal(out, payload))
	return nil
}
