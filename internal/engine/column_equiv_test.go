package engine

import (
	"bytes"
	"reflect"
	"testing"

	"gps/internal/trace"
)

// TestRunColumnarMatchesFlat replays the same program from resident column
// blocks and as decoded from its flat GPSTRACE record stream (the path
// gpsim -trace takes), and requires the model to see an identical access
// stream and the engine to produce an identical result.
// This is the storage-equivalence oracle for the block-cursor replay path.
func TestRunColumnarMatchesFlat(t *testing.T) {
	col := twoGPUProgram()
	var wire bytes.Buffer
	if err := trace.Encode(&wire, twoGPUProgram()); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Decode(&wire)
	if err != nil {
		t.Fatal(err)
	}

	run := func(p trace.Program) (*recordingModel, *Result) {
		m := &recordingModel{}
		return m, Run(p, m)
	}
	mCol, rCol := run(col)
	m, r := run(decoded)
	if !reflect.DeepEqual(m.accesses, mCol.accesses) {
		t.Fatal("decoded replay fed the model a different access stream")
	}
	if !reflect.DeepEqual(r, rCol) {
		t.Fatal("decoded replay produced a different result")
	}
}
