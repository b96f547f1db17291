package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one harness-side interval around a call into the program.
type span struct {
	phase, name string
	id          int
	start, end  time.Time
	cpu         time.Duration
}

// spanLog keeps the traced run's spans in memory until the run ends. A nil
// spanLog records nothing, so the untraced run pays no tracing cost.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) add(phase, name string, id int, start, end time.Time, cpu time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{phase, name, id, start, end, cpu})
}

// chromeEvent is one Chrome trace-event "complete" event, loadable in
// Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace-event JSON array. Each
// phase gets its own track; spans of one iteration share args.iteration.
func (l *spanLog) writeChrome(path string) error {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		tid, ok := tids[s.phase]
		if !ok {
			tid = len(tids) + 1
			tids[s.phase] = tid
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
			Args: map[string]any{"phase": s.phase, "iteration": s.id, "cpu_ms": ms(s.cpu)},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(events); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
