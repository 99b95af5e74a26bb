package engine

import (
	"bytes"
	"reflect"
	"testing"

	"gps/internal/trace"
)

// TestRunColumnarMatchesFlat replays the same program from resident column
// blocks, from spilled blocks, and as decoded from its flat GPSTRACE record
// stream (the path gpsim -trace takes), and requires the model to see an
// identical access stream and the engine to produce an identical result.
// This is the storage-equivalence oracle for the block-cursor replay path.
func TestRunColumnarMatchesFlat(t *testing.T) {
	col := twoGPUProgram()
	spilled := twoGPUProgram()
	sf, err := trace.NewSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if freed, err := spilled.Spill(sf); err != nil || freed == 0 {
		t.Fatalf("spill: freed %d, err %v", freed, err)
	}
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
	for name, p := range map[string]trace.Program{"spilled": spilled, "decoded": decoded} {
		m, r := run(p)
		if !reflect.DeepEqual(m.accesses, mCol.accesses) {
			t.Fatalf("%s replay fed the model a different access stream", name)
		}
		if !reflect.DeepEqual(r, rCol) {
			t.Fatalf("%s replay produced a different result", name)
		}
	}
}

// TestRunPanicsOnUnreadableBlock documents the failure mode: a block that can
// no longer be fetched panics out of the replay loop (the experiment runner's
// fences turn this into a typed cell error).
func TestRunPanicsOnUnreadableBlock(t *testing.T) {
	col := twoGPUProgram()
	sf, err := trace.NewSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Spill(sf); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("replay of an unreadable block did not panic")
		}
	}()
	Run(col, &recordingModel{})
}
