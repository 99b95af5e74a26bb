package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic "GPSTRACE" (8 bytes)
//	version uvarint
//	meta length uvarint, meta as JSON (self-describing, rarely large)
//	phase count uvarint
//	per phase: index uvarint, label string, kernel count uvarint
//	per kernel: gpu uvarint, name string, computeOps uvarint,
//	            access count uvarint, packed access records
//	per access: op|scope|pattern packed byte order, threads, elem,
//	            stride uvarint, seed uvarint, addr uvarint (delta-coded)
//
// Strings are uvarint length + bytes. Access addresses are delta-encoded
// against the previous access in the kernel (zigzag), which compresses the
// mostly-sequential address streams stencil workloads emit.

const (
	magic   = "GPSTRACE"
	version = 1

	// maxMetaBytes caps the declared meta length; real metas are a few KB.
	maxMetaBytes = 1 << 24
)

// Encode writes p to w in the binary trace format.
func Encode(w io.Writer, p Program) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	putUvarint(bw, version)

	metaJSON, err := json.Marshal(p.Meta())
	if err != nil {
		return fmt.Errorf("trace: encoding meta: %w", err)
	}
	putUvarint(bw, uint64(len(metaJSON)))
	if _, err := bw.Write(metaJSON); err != nil {
		return err
	}

	rec := Collect(p)
	putUvarint(bw, uint64(len(rec.Ph)))
	for i := range rec.Ph {
		if err := encodePhase(bw, &rec.Ph[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode reads a binary trace written by Encode.
func Decode(r io.Reader) (*Recorded, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", head)
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}

	metaJSON, err := readMeta(br)
	if err != nil {
		return nil, err
	}
	rec := &Recorded{}
	if err := json.Unmarshal(metaJSON, &rec.M); err != nil {
		return nil, fmt.Errorf("trace: decoding meta: %w", err)
	}

	numPhases, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if numPhases > 1<<24 {
		return nil, fmt.Errorf("trace: implausible phase count %d", numPhases)
	}
	if numPhases > 0 {
		rec.Ph = make([]Phase, 0, numPhases)
	}
	for pi := uint64(0); pi < numPhases; pi++ {
		ph, err := decodePhase(br)
		if err != nil {
			return nil, fmt.Errorf("trace: phase %d: %w", pi, err)
		}
		rec.Ph = append(rec.Ph, *ph)
	}
	return rec, nil
}

// EncodeJSON writes a human-readable JSON rendering of the trace, for
// inspection with standard tools. It is much larger than the binary format.
func EncodeJSON(w io.Writer, p Program) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Collect(p))
}

// DecodeJSON reads a trace written by EncodeJSON.
func DecodeJSON(r io.Reader) (*Recorded, error) {
	rec := &Recorded{}
	if err := json.NewDecoder(r).Decode(rec); err != nil {
		return nil, err
	}
	return rec, nil
}

// readMeta reads the length-prefixed meta JSON of a trace header. The read
// is bounded by the input rather than by the declared length, so a short
// input can only cost what it actually holds.
func readMeta(br *bufio.Reader) ([]byte, error) {
	metaLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if metaLen > maxMetaBytes {
		return nil, fmt.Errorf("trace: implausible meta length %d", metaLen)
	}
	metaJSON, err := io.ReadAll(io.LimitReader(br, int64(metaLen)))
	if err != nil {
		return nil, err
	}
	if uint64(len(metaJSON)) != metaLen {
		return nil, fmt.Errorf("trace: meta truncated at %d of %d bytes: %w", len(metaJSON), metaLen, io.ErrUnexpectedEOF)
	}
	return metaJSON, nil
}

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func putVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func putString(w *bufio.Writer, s string) {
	putUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func getString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("trace: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
