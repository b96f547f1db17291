package mtrace

import (
	"fmt"
	"io"
	"time"

	"hostsim/internal/stage"
	"hostsim/internal/telemetry"
)

// Spans renders the exemplar span trees as reusable trace spans, slowest
// message first. Each exemplar becomes one Perfetto process with three
// threads: the end-to-end message span, the telescoping stage slices,
// and the segment/recovery instants. Stage slices carry their exact
// nanosecond duration in args ("ns"), so consumers can verify the
// telescoping invariant without microsecond rounding noise.
func (t *Tracer) Spans() []telemetry.Span {
	if t == nil {
		return nil
	}
	var spans []telemetry.Span
	for rank, e := range t.Exemplars() {
		proc := fmt.Sprintf("slow%02d flow%03d msg%06d (%v)",
			rank+1, e.Flow, e.ID, time.Duration(e.Total))
		spans = append(spans, telemetry.Span{
			Process: proc, Thread: 0, ThreadName: "message",
			Name: stage.Total.String(), Cat: "message",
			StartNS: int64(e.WriteAt), DurNS: e.Total,
			Args: map[string]any{"ns": e.Total, "flow": int64(e.Flow), "msg": e.ID},
		})
		cur := int64(e.WriteAt)
		for i, d := range e.Stages {
			spans = append(spans, telemetry.Span{
				Process: proc, Thread: 1, ThreadName: "stages",
				Name: stage.Message[i].String(), Cat: "stage",
				StartNS: cur, DurNS: d,
				Args: map[string]any{"ns": d},
			})
			cur += d
		}
		for _, sg := range e.Segs {
			name := "tx"
			if sg.Retrans {
				name = "retx"
			}
			spans = append(spans, telemetry.Span{
				Process: proc, Thread: 2, ThreadName: "segments",
				Name: name, Cat: "segment", Instant: true,
				StartNS: int64(sg.At),
				Args:    map[string]any{"seq": sg.Seq, "len": int64(sg.Len)},
			})
		}
		for _, ev := range e.Events {
			spans = append(spans, telemetry.Span{
				Process: proc, Thread: 2, ThreadName: "segments",
				Name: ev.Kind, Cat: "recovery", Instant: true,
				StartNS: int64(ev.At),
			})
		}
	}
	return spans
}

// WriteSpans writes the exemplar span trees as a Chrome trace-event JSON
// array (Perfetto-loadable), reusing the shared trace writer. An empty
// exemplar store writes a valid empty trace.
func (t *Tracer) WriteSpans(w io.Writer) error {
	return telemetry.WriteChromeSpans(w, t.Spans())
}
