package obs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"flexpass/internal/metrics"
	"flexpass/internal/sim"
	"flexpass/internal/trace"
)

// SchemaVersion identifies the JSONL artifact layout. Bump on any
// incompatible change to the line structs below. ReadJSONL reads
// MinSchemaVersion through SchemaVersion: v5 put the flow table in the
// artifact, and every per-flow statistic is computed from it, so an older
// artifact has nothing to compute them from and is re-run, not read.
const (
	SchemaVersion    = 5
	MinSchemaVersion = 5
)

// Manifest is the run's self-description: everything needed to
// re-run or interpret the artifact without the producing binary.
type Manifest struct {
	Schema     int     `json:"schema"`
	Seed       int64   `json:"seed"`
	Topology   string  `json:"topology"`
	Scheme     string  `json:"scheme"`
	Workload   string  `json:"workload,omitempty"`
	Load       float64 `json:"load,omitempty"`
	Deployment float64 `json:"deployment,omitempty"`
	WQ         float64 `json:"wq,omitempty"`
	DurationPs int64   `json:"duration_ps"`
	// Shards is the parallel-engine partition count the run executed
	// with; omitted (reads back 0) for single-engine runs.
	Shards int `json:"shards,omitempty"`
	// SchemeOptions is the resolved per-scheme option map the run used
	// (typed scenario knobs already folded in) — part of the scenario
	// identity, unlike the free-form Config below.
	SchemeOptions map[string]string `json:"scheme_options,omitempty"`
	// FaultPlan / FaultPlanHash identify the scripted fault timeline, if
	// any: the plan's display name and faults.Plan.Hash() content hash.
	FaultPlan     string `json:"fault_plan,omitempty"`
	FaultPlanHash string `json:"fault_plan_hash,omitempty"`
	// WorkloadPlan / WorkloadPlanHash identify the composable workload
	// plan, if the run was driven by one: the plan's display name and
	// workload.Plan.Hash() content hash (rename-invariant, trace sources
	// hashed by content). Runs on the parameter workload leave both
	// empty and keep identifying themselves via Workload alone.
	WorkloadPlan     string `json:"workload_plan,omitempty"`
	WorkloadPlanHash string `json:"workload_plan_hash,omitempty"`
	// Revision is the producing repo revision (best-effort VCS stamp).
	Revision string `json:"revision,omitempty"`
	// Config holds free-form knob values not covered by the typed fields.
	Config map[string]string `json:"config,omitempty"`
	// Perf self-report: wall-clock runtime, events dispatched, rate.
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	// Profile is the engine self-profiler's per-component attribution
	// (when the run enabled it); absent on unprofiled runs.
	Profile []ComponentProfile `json:"profile,omitempty"`
	// ViolationsDropped counts auditor violations discarded over the
	// forensics retention cap. The artifact's forensics lines are the
	// kept violations; a nonzero value here marks them as a truncated
	// sample, which downstream consumers (the lake's violations_dropped
	// column, chaos oracles) must treat as "at least". Absent (0) on
	// clean or non-forensic runs.
	ViolationsDropped int64 `json:"violations_dropped,omitempty"`
	// Q1 occupancy of the ToR uplinks in bytes — mean and p90 of all
	// bytes and of the red (reactive) bytes — when the run sampled it
	// (harness.Scenario.SampleQueues); absent otherwise.
	Q1AvgB    int64 `json:"q1_avg_b,omitempty"`
	Q1P90B    int64 `json:"q1_p90_b,omitempty"`
	Q1RedAvgB int64 `json:"q1_red_avg_b,omitempty"`
	Q1RedP90B int64 `json:"q1_red_p90_b,omitempty"`
}

// ComponentProfile is one engine component's dispatch accounting: how
// many events it dispatched, how much wall time they took, the single
// worst dispatch, and a power-of-two latency histogram in nanoseconds.
type ComponentProfile struct {
	Component string  `json:"component"`
	Events    uint64  `json:"events"`
	WallNs    int64   `json:"wall_ns"`
	MaxNs     int64   `json:"max_ns"`
	Le        []int64 `json:"le,omitempty"`     // exclusive ns upper bound per bucket
	Counts    []int64 `json:"counts,omitempty"` // dispatches per bucket
}

// SeriesData is one exported time series. Values is run-length encoded
// in memory and a plain JSON array of integers on the wire.
type SeriesData struct {
	Entity     string  `json:"entity"`
	Metric     string  `json:"metric"`
	Kind       string  `json:"kind"` // "delta" or "instant"
	IntervalPs int64   `json:"interval_ps"`
	StartPs    int64   `json:"start_ps"` // time of the first retained sample
	Dropped    int64   `json:"dropped,omitempty"`
	Values     Samples `json:"values"`
}

// CounterData is one source's closing value.
type CounterData struct {
	Entity string `json:"entity"`
	Metric string `json:"metric"`
	Kind   string `json:"kind"`
	Value  int64  `json:"value"`
}

// HistData is one histogram's final bucket counts. Buckets are
// power-of-two upper bounds; zero-count buckets are elided.
type HistData struct {
	Entity string  `json:"entity"`
	Metric string  `json:"metric"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Le     []int64 `json:"le"`     // exclusive upper bound per bucket
	Counts []int64 `json:"counts"` // observations per bucket
}

// TraceData is one transport trace event.
type TraceData struct {
	AtPs int64  `json:"at_ps"`
	Kind string `json:"kind"`
	Flow uint64 `json:"flow"`
	Seq  int64  `json:"seq"`
	Note string `json:"note,omitempty"`
}

// TraceOf returns ev's artifact form.
func TraceOf(ev trace.Event) TraceData {
	return TraceData{AtPs: int64(ev.At), Kind: ev.Kind.String(), Flow: ev.Flow, Seq: ev.Seq, Note: ev.Note}
}

// FaultData is one applied fault-plan action: what the plan did to which
// link, and when. Recovery analysis reads these back to locate the fault
// window without re-parsing the plan.
type FaultData struct {
	AtPs int64  `json:"at_ps"`
	Kind string `json:"kind"` // fault event kind, e.g. "link-down", "burst-loss"
	Link string `json:"link"` // resolved port name the action was applied to
	// Value is the kind-specific magnitude: rate fraction for
	// "rate-degrade", loss probability for "burst-loss"/"credit-loss",
	// 0 for up/down/restore actions.
	Value float64 `json:"value,omitempty"`
}

// Run is a complete run artifact: one manifest, the run's flow table,
// and every collected series, closing counter, histogram, trace event,
// forensics line (auditor violations and flow timelines), and applied
// fault action.
type Run struct {
	Manifest  Manifest
	Flows     []metrics.FlowRecord // in (start, ID) order
	Series    []SeriesData
	Counters  []CounterData
	Hists     []HistData
	Trace     []TraceData
	Forensics []ForensicsData
	Faults    []FaultData
}

// Collect assembles a run artifact from the registry's closing values
// and the prober's series (either may be nil). The artifact takes the
// prober's series as they are, storage and all, so collect once it has
// stopped.
func Collect(reg *Registry, p *Prober, m Manifest) *Run {
	m.Schema = SchemaVersion
	r := &Run{Manifest: m, Series: p.Series(), Counters: reg.Final()}
	if reg != nil {
		for _, h := range reg.hists {
			hd := HistData{Entity: h.entity, Metric: h.metric, Count: h.n, Sum: h.sum}
			hd.Le, hd.Counts = SparseBuckets(h.counts[:])
			r.Hists = append(r.Hists, hd)
		}
	}
	return r
}

// AttachTrace appends the ring's events to the artifact.
func (r *Run) AttachTrace(ring *trace.Ring) {
	r.Trace = slices.Grow(r.Trace, ring.Len())
	ring.Each(func(ev trace.Event) { r.Trace = append(r.Trace, TraceOf(ev)) })
}

// FindSeries returns the series for entity/metric, or nil.
func (r *Run) FindSeries(entity, metric string) *SeriesData {
	for i := range r.Series {
		if r.Series[i].Entity == entity && r.Series[i].Metric == metric {
			return &r.Series[i]
		}
	}
	return nil
}

// SeriesMatching returns every series whose metric equals metric.
func (r *Run) SeriesMatching(metric string) []SeriesData {
	var out []SeriesData
	for _, s := range r.Series {
		if s.Metric == metric {
			out = append(out, s)
		}
	}
	return out
}

// jsonlLine is the on-disk envelope: a type tag plus exactly one of the
// payload pointers. Emitting a shared envelope keeps readers trivial —
// they switch on "type" and unmarshal once.
type jsonlLine struct {
	Type      string              `json:"type"`
	Manifest  *Manifest           `json:"manifest,omitempty"`
	Flow      *metrics.FlowRecord `json:"flow,omitempty"`
	Series    *SeriesData         `json:"series,omitempty"`
	Counter   *CounterData        `json:"counter,omitempty"`
	Hist      *HistData           `json:"hist,omitempty"`
	Trace     *TraceData          `json:"trace,omitempty"`
	Forensics *ForensicsData      `json:"forensics,omitempty"`
	Fault     *FaultData          `json:"fault,omitempty"`
}

// seriesHead is a series line without its values: SeriesData's wire
// twin, whose Values — a shallower field, so it shadows the series' own —
// is nil and so omitted. encoding/json writes the head, escaping the
// names as it does for any line, and WriteJSONL appends the values.
type seriesHead struct {
	Type   string `json:"type"`
	Series struct {
		*SeriesData
		Values *struct{} `json:"values,omitempty"`
	} `json:"series"`
}

// WriteJSONL streams the artifact: first the manifest line, then one
// line per flow — so a torn artifact keeps its flow table — then one per
// series, counter, histogram, trace event, forensics line and fault
// action. The flow lines are writeFlows', which FlowsDigest hashes; the
// other lines are encoded from one envelope, so Encode boxes one pointer
// per artifact rather than a fresh envelope per line. A series
// line is its head, encoded into one reused buffer, with the values
// appended there as Samples.AppendJSON writes them: encoding/json never
// re-scans them. The first error stops the rest.
func (r *Run) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	l := &jsonlLine{Type: "manifest", Manifest: &r.Manifest}
	err := enc.Encode(l)
	if err == nil {
		err = writeFlows(bw, r.Flows)
	}
	var line bytes.Buffer
	head, lineEnc := &seriesHead{Type: "series"}, json.NewEncoder(&line)
	for i := 0; err == nil && i < len(r.Series); i++ {
		line.Reset()
		head.Series.SeriesData = &r.Series[i]
		if err = lineEnc.Encode(head); err != nil {
			break
		}
		line.Truncate(line.Len() - len("}}\n"))
		line.WriteString(`,"values":`)
		line.Write(r.Series[i].Values.AppendJSON(line.AvailableBuffer()))
		line.WriteString("}}\n")
		_, err = bw.Write(line.Bytes())
	}
	for i := 0; err == nil && i < len(r.Counters); i++ {
		*l = jsonlLine{Type: "counter", Counter: &r.Counters[i]}
		err = enc.Encode(l)
	}
	for i := 0; err == nil && i < len(r.Hists); i++ {
		*l = jsonlLine{Type: "hist", Hist: &r.Hists[i]}
		err = enc.Encode(l)
	}
	for i := 0; err == nil && i < len(r.Trace); i++ {
		*l = jsonlLine{Type: "trace", Trace: &r.Trace[i]}
		err = enc.Encode(l)
	}
	for i := 0; err == nil && i < len(r.Forensics); i++ {
		*l = jsonlLine{Type: "forensics", Forensics: &r.Forensics[i]}
		err = enc.Encode(l)
	}
	for i := 0; err == nil && i < len(r.Faults); i++ {
		*l = jsonlLine{Type: "fault", Fault: &r.Faults[i]}
		err = enc.Encode(l)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// writeFlows writes one "flow" line per record to w: the artifact's flow
// table as WriteJSONL writes it, and what FlowsDigest hashes.
func writeFlows(w io.Writer, flows []metrics.FlowRecord) error {
	enc, l := json.NewEncoder(w), &jsonlLine{Type: "flow"}
	for i := range flows {
		l.Flow = &flows[i]
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}

// FlowsDigest is the sha256, in hex, of flows' lines exactly as
// WriteJSONL writes them, so `grep '"type":"flow"' run.jsonl | sha256sum`
// reads it off an artifact. It is the one digest of a run's flows: two
// runs have the same one iff every flow record is the same.
func FlowsDigest(flows []metrics.FlowRecord) string {
	h := sha256.New()
	_ = writeFlows(h, flows) // a hash's Write never fails
	return hex.EncodeToString(h.Sum(nil))
}

// WriteJSONLFile writes the artifact to path.
func (r *Run) WriteJSONLFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CorruptArtifactError reports a damaged JSONL artifact — a truncated
// tail, a garbled line, or an unknown line type. ReadJSONL returns it
// alongside whatever it could salvage, so callers can distinguish "the
// run crashed mid-write but the prefix is usable" from a clean read.
type CorruptArtifactError struct {
	Line int   // 1-based line number of the first damage
	Err  error // underlying parse / scan failure
}

func (e *CorruptArtifactError) Error() string {
	return fmt.Sprintf("obs: corrupt artifact at line %d: %v", e.Line, e.Err)
}

// Unwrap exposes the underlying failure.
func (e *CorruptArtifactError) Unwrap() error { return e.Err }

// ReadJSONL parses an artifact written by WriteJSONL. Damaged input —
// truncated mid-line, a corrupt line, or a line of unknown type — does
// not fail the whole read: parsing stops at the first bad line and the
// salvaged prefix is returned together with a *CorruptArtifactError. A
// nil error means the artifact was read cleanly and completely. An
// artifact without a manifest, or one whose manifest carries a schema
// outside MinSchemaVersion..SchemaVersion, is not salvaged: the run is
// nil.
func ReadJSONL(rd io.Reader) (*Run, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	r := &Run{}
	sawManifest := false
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return r, &CorruptArtifactError{Line: line, Err: err}
		}
		switch l.Type {
		case "manifest":
			if l.Manifest == nil {
				return r, &CorruptArtifactError{Line: line, Err: fmt.Errorf("manifest line without payload")}
			}
			if v := l.Manifest.Schema; v < MinSchemaVersion || v > SchemaVersion {
				return nil, fmt.Errorf("obs: artifact schema %d, this build reads schemas %d to %d", v, MinSchemaVersion, SchemaVersion)
			}
			r.Manifest = *l.Manifest
			sawManifest = true
		case "flow":
			if l.Flow != nil {
				r.Flows = append(r.Flows, *l.Flow)
			}
		case "series":
			if l.Series != nil {
				r.Series = append(r.Series, *l.Series)
			}
		case "counter":
			if l.Counter != nil {
				r.Counters = append(r.Counters, *l.Counter)
			}
		case "hist":
			if l.Hist != nil {
				// The bucket arithmetic indexes the two lists together.
				if len(l.Hist.Le) != len(l.Hist.Counts) {
					return r, &CorruptArtifactError{Line: line, Err: fmt.Errorf("hist line with %d bounds for %d counts", len(l.Hist.Le), len(l.Hist.Counts))}
				}
				r.Hists = append(r.Hists, *l.Hist)
			}
		case "trace":
			if l.Trace != nil {
				r.Trace = append(r.Trace, *l.Trace)
			}
		case "forensics":
			if l.Forensics != nil {
				r.Forensics = append(r.Forensics, *l.Forensics)
			}
		case "fault":
			if l.Fault != nil {
				r.Faults = append(r.Faults, *l.Fault)
			}
		default:
			return r, &CorruptArtifactError{Line: line, Err: fmt.Errorf("unknown line type %q", l.Type)}
		}
	}
	if err := sc.Err(); err != nil {
		return r, &CorruptArtifactError{Line: line + 1, Err: err}
	}
	if !sawManifest {
		return nil, fmt.Errorf("obs: artifact has no manifest line")
	}
	return r, nil
}

// ReadJSONLFile parses the artifact at path.
func ReadJSONLFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJSONL(f)
}

// WriteCSV emits the series in long form (entity,metric,kind,time_us,
// value), the flat-file cousin of the JSONL artifact for spreadsheet or
// flexplot consumption.
func (r *Run) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "entity,metric,kind,time_us,value"); err != nil {
		return err
	}
	// A failed write sticks in bw and comes back from Flush.
	for _, s := range r.Series {
		s.Values.Each(func(i int, v int64) {
			t := sim.Time(s.StartPs + int64(i)*s.IntervalPs)
			fmt.Fprintf(bw, "%s,%s,%s,%.3f,%d\n", s.Entity, s.Metric, s.Kind, t.Micros(), v)
		})
	}
	return bw.Flush()
}
