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
//	            localStreamBytes uvarint, access count uvarint,
//	            packed access records
//	per access: op, scope, pattern, threads, elem (one byte each),
//	            stride uvarint, seed uvarint, addr varint (delta-coded)
//
// Strings are uvarint length + bytes. Access addresses are delta-encoded
// against the previous access in the kernel (zigzag), which compresses the
// mostly-sequential address streams stencil workloads emit. The format is a
// flat record stream; Encode decodes each kernel's column blocks to write
// it, and Decode re-encodes the records into column blocks.

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
	// Phases are appended as they decode, so a short input that declares
	// many phases costs only what it holds.
	if numPhases > 1<<24 {
		return nil, fmt.Errorf("trace: implausible phase count %d", numPhases)
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

// encodePhase writes one phase in the phase layout above, decoding each
// kernel's column blocks into the flat record stream.
func encodePhase(bw *bufio.Writer, ph *Phase) error {
	putUvarint(bw, uint64(ph.Index))
	putString(bw, ph.Label)
	putUvarint(bw, uint64(len(ph.Kernels)))
	var dec BlockDecoder
	for i := range ph.Kernels {
		k := &ph.Kernels[i]
		putUvarint(bw, uint64(k.GPU))
		putString(bw, k.Name)
		putUvarint(bw, k.ComputeOps)
		putUvarint(bw, k.LocalStreamBytes)
		putUvarint(bw, uint64(k.NumAccesses()))
		prevAddr := uint64(0)
		err := k.EachBlock(&dec, func(accs []Access) bool {
			for _, a := range accs {
				bw.WriteByte(byte(a.Op))
				bw.WriteByte(byte(a.Scope))
				bw.WriteByte(byte(a.Pattern))
				bw.WriteByte(a.Threads)
				bw.WriteByte(a.ElemBytes)
				putUvarint(bw, uint64(a.Stride))
				putUvarint(bw, uint64(a.Seed))
				putVarint(bw, int64(a.Addr)-int64(prevAddr))
				prevAddr = a.Addr
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("trace: encoding kernel %q: %w", k.Name, err)
		}
	}
	return nil
}

// decodePhase reads one phase in the phase layout above, validating each
// record and appending it to its kernel's column encoder. Nothing is sized
// by a declared count, so a short input costs only what it holds.
func decodePhase(br *bufio.Reader) (*Phase, error) {
	var ph Phase
	idx, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	ph.Index = int(idx)
	if ph.Label, err = getString(br); err != nil {
		return nil, err
	}
	numKernels, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if numKernels > 1<<20 {
		return nil, fmt.Errorf("trace: implausible kernel count %d", numKernels)
	}
	var hdr [5]byte
	for ki := uint64(0); ki < numKernels; ki++ {
		var k Kernel
		gpu, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		k.GPU = int(gpu)
		if k.Name, err = getString(br); err != nil {
			return nil, err
		}
		if k.ComputeOps, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		if k.LocalStreamBytes, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		numAcc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if numAcc > 1<<28 {
			return nil, fmt.Errorf("trace: implausible access count %d", numAcc)
		}
		var enc ColumnEncoder
		prevAddr := uint64(0)
		for ai := uint64(0); ai < numAcc; ai++ {
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return nil, err
			}
			a := Access{Op: Op(hdr[0]), Scope: Scope(hdr[1]), Pattern: Pattern(hdr[2]), Threads: hdr[3], ElemBytes: hdr[4]}
			stride, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			a.Stride = uint32(stride)
			seed, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			a.Seed = uint32(seed)
			delta, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			a.Addr = uint64(int64(prevAddr) + delta)
			prevAddr = a.Addr
			if err := a.Validate(); err != nil {
				return nil, fmt.Errorf("trace: kernel %d access %d: %w", ki, ai, err)
			}
			enc.Append(a)
		}
		k.Col = enc.Finish()
		ph.Kernels = append(ph.Kernels, k)
	}
	return &ph, nil
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

// putUvarint and putVarint append straight into the writer's free buffer,
// so encoding allocates nothing per varint.
func putUvarint(w *bufio.Writer, v uint64) { w.Write(binary.AppendUvarint(varintSpace(w), v)) }

func putVarint(w *bufio.Writer, v int64) { w.Write(binary.AppendVarint(varintSpace(w), v)) }

// varintSpace returns the writer's empty free buffer, flushing first when a
// varint might not fit, so the append never outgrows it. A flush error
// sticks in w and surfaces at Encode's final Flush.
func varintSpace(w *bufio.Writer) []byte {
	if w.Available() < binary.MaxVarintLen64 {
		w.Flush() //nolint:errcheck // sticky; reported by the final Flush
	}
	return w.AvailableBuffer()
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
