package harness

import (
	"fmt"
	"testing"

	"flexpass/internal/live"
)

// TestProfileDigestIdentical pins the profiler's behaviour-neutrality
// contract: a plain run gives the golden row of shardScenario(flexpass),
// and a run with self-profiling and the live status board the same
// flows, while attributing events to the expected components —
// on one engine and, with every plane publishing to the one board from
// its own goroutine, on two.
func TestProfileDigestIdentical(t *testing.T) {
	for _, shards := range []int{1, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testProfileDigestIdentical(t, shards) })
	}
}

func testProfileDigestIdentical(t *testing.T, shards int) {
	sc := shardScenario(SchemeFlexPass, shards)
	plain := Run(sc)

	sc.Profile = true
	board := &live.RunBoard{}
	sc.Live = board
	res := Run(sc)

	sameFlows(t, "profiled and live vs plain", res, plain)

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

	// The board's publishing adds events, so only the plain run has the
	// row's event count.
	matchGolden(t, plain, string(SchemeFlexPass))
}
