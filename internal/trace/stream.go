package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Streaming trace format: the batch format of codec.go writes the phase
// count up front, which requires the whole trace in memory. The streaming
// variant writes phases as they are produced and terminates with a
// sentinel, so multi-gigabyte traces can be captured and replayed with
// constant memory — the property real binary-instrumentation tracers need.
//
//	magic "GPSTRST" 'M' (8 bytes), version uvarint,
//	meta length uvarint + JSON,
//	repeated: marker byte 'P' + phase (format of codec.go),
//	terminator byte 'E'.

const streamMagic = "GPSTRSTM"

// StreamEncoder writes a trace phase by phase.
type StreamEncoder struct {
	w      *bufio.Writer
	closed bool
	err    error
}

// NewStreamEncoder writes the stream header and returns an encoder.
func NewStreamEncoder(w io.Writer, meta Meta) (*StreamEncoder, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(streamMagic); err != nil {
		return nil, err
	}
	putUvarint(bw, version)
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding meta: %w", err)
	}
	putUvarint(bw, uint64(len(metaJSON)))
	if _, err := bw.Write(metaJSON); err != nil {
		return nil, err
	}
	return &StreamEncoder{w: bw}, nil
}

// WritePhase appends one phase to the stream.
func (e *StreamEncoder) WritePhase(ph *Phase) error {
	if e.closed {
		return fmt.Errorf("trace: stream encoder already closed")
	}
	if e.err != nil {
		return e.err
	}
	e.w.WriteByte('P')
	if err := encodePhase(e.w, ph); err != nil {
		e.err = err
		return err
	}
	e.err = e.w.Flush()
	return e.err
}

// Close writes the terminator and flushes.
func (e *StreamEncoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	e.w.WriteByte('E')
	return e.w.Flush()
}

// encodePhase writes one phase in the batch format's phase layout. The wire
// format is storage-agnostic: columnar kernels are decoded block by block
// and written as the same flat record stream, so both kernel forms produce
// identical bytes.
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

// StreamDecoder reads a streamed trace phase by phase. It implements
// Program, so a stream can feed the engine directly — but as a one-shot
// source: Phases may be iterated only once.
type StreamDecoder struct {
	r        *bufio.Reader
	meta     Meta
	consumed bool
	err      error
}

// NewStreamDecoder reads and validates the stream header.
func NewStreamDecoder(r io.Reader) (*StreamDecoder, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading stream magic: %w", err)
	}
	if string(head) != streamMagic {
		return nil, fmt.Errorf("trace: bad stream magic %q", head)
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if v != version {
		return nil, fmt.Errorf("trace: unsupported stream version %d", v)
	}
	metaJSON, err := readMeta(br)
	if err != nil {
		return nil, err
	}
	d := &StreamDecoder{r: br}
	if err := json.Unmarshal(metaJSON, &d.meta); err != nil {
		return nil, fmt.Errorf("trace: decoding stream meta: %w", err)
	}
	return d, nil
}

// Meta implements Program.
func (d *StreamDecoder) Meta() Meta { return d.meta }

// Err returns the first decoding error encountered during iteration.
func (d *StreamDecoder) Err() error { return d.err }

// Phases implements Program, decoding each phase on demand. The stream can
// be consumed only once; a second call reports an error via Err.
func (d *StreamDecoder) Phases(yield func(*Phase) bool) {
	if d.consumed {
		d.err = fmt.Errorf("trace: stream already consumed")
		return
	}
	d.consumed = true
	for {
		marker, err := d.r.ReadByte()
		if err != nil {
			d.err = fmt.Errorf("trace: reading phase marker: %w", err)
			return
		}
		switch marker {
		case 'E':
			return
		case 'P':
			ph, err := decodePhase(d.r)
			if err != nil {
				d.err = err
				return
			}
			if !yield(ph) {
				return
			}
		default:
			d.err = fmt.Errorf("trace: bad phase marker %#x", marker)
			return
		}
	}
}

// decodePhase reads one phase in the batch format's phase layout.
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
		if numAcc > 0 {
			k.Accesses = make([]Access, 0, numAcc)
		}
		prevAddr := uint64(0)
		for ai := uint64(0); ai < numAcc; ai++ {
			var a Access
			hdr := make([]byte, 5)
			if _, err := io.ReadFull(br, hdr); err != nil {
				return nil, err
			}
			a.Op, a.Scope, a.Pattern = Op(hdr[0]), Scope(hdr[1]), Pattern(hdr[2])
			a.Threads, a.ElemBytes = hdr[3], hdr[4]
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
				return nil, fmt.Errorf("trace: stream kernel %d access %d: %w", ki, ai, err)
			}
			k.Accesses = append(k.Accesses, a)
		}
		ph.Kernels = append(ph.Kernels, k)
	}
	return &ph, nil
}

// EncodeStream writes an entire Program in the streaming format.
func EncodeStream(w io.Writer, p Program) error {
	enc, err := NewStreamEncoder(w, p.Meta())
	if err != nil {
		return err
	}
	var werr error
	p.Phases(func(ph *Phase) bool {
		werr = enc.WritePhase(ph)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return enc.Close()
}
