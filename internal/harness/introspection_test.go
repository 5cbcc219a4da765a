package harness

import (
	"fmt"
	"testing"

	"flexpass/internal/live"
)

// TestProfileDigestIdentical pins the profiler's behaviour-neutrality
// contract: enabling self-profiling (and the live status board) must
// leave the flow digest bit-identical to an unprofiled run of the same
// scenario, while still attributing events to the expected components —
// on one engine and, with every plane publishing to the one board from
// its own goroutine, on two.
func TestProfileDigestIdentical(t *testing.T) {
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testProfileDigestIdentical(t, shards) })
	}
}

func testProfileDigestIdentical(t *testing.T, shards int) {
	sc := schemeDigestScenario(SchemeFlexPass)
	sc.Shards = shards
	plain := recordsDigest(Run(sc))

	sc.Profile = true
	board := &live.RunBoard{}
	sc.Live = board
	res := Run(sc)

	if got := recordsDigest(res); got != plain {
		t.Fatalf("profiled digest %s != plain digest %s — profiling changed behaviour", got, plain)
	}

	if len(res.Profile) == 0 {
		t.Fatal("profiled run exported no component profile")
	}
	byName := map[string]uint64{}
	var total uint64
	for _, cp := range res.Profile {
		byName[cp.Component] = cp.Events
		total += cp.Events
	}
	for _, want := range []string{"transport/flexpass", "transport/dctcp", "netem/tx", "harness/arrival"} {
		if byName[want] == 0 {
			t.Errorf("no events attributed to %q (profile: %v)", want, byName)
		}
	}
	if total == 0 {
		t.Fatal("profiler observed zero events")
	}

	// The live board saw the run finish with consistent flow counts.
	st := board.Status()
	if !st.Done {
		t.Fatalf("final board status not done: %+v", st)
	}
	if st.FlowsTotal == 0 || st.FlowsDone == 0 || st.FlowsDone > st.FlowsTotal {
		t.Fatalf("implausible board flow counts: %+v", st)
	}
	if st.Events == 0 || st.SimNowPs == 0 {
		t.Fatalf("board missing engine progress: %+v", st)
	}
	if len(board.Readings()) == 0 {
		t.Fatal("board published no metric readings")
	}
}
