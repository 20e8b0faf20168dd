package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanRec is one timed call made from the benchmark's own files.
type spanRec struct {
	Name   string `json:"name"`
	Op     string `json:"op"` // shared by every span of one message
	Caller int    `json:"caller"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, one buffer per caller so callers never
// contend, and writes them out when the run ends. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	spans [][]spanRec
}

const spanIDShift = 28

func newTracer(callers int) *tracer {
	t := &tracer{t0: time.Now(), spans: make([][]spanRec, callers)}
	for c := range t.spans {
		t.spans[c] = make([]spanRec, 0, 1<<16)
	}
	return t
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(caller int, o Op, name string, parent int) int {
	if t == nil {
		return 0
	}
	buf := t.spans[caller]
	id := caller<<spanIDShift | (len(buf) + 1)
	t.spans[caller] = append(buf, spanRec{Name: name, Op: o.Key, Caller: caller, ID: id, Parent: parent, Start: int64(time.Since(t.t0))})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	caller := id >> spanIDShift
	t.spans[caller][id&(1<<spanIDShift-1)-1].End = int64(time.Since(t.t0))
}

// count returns how many spans were recorded.
func (t *tracer) count() int {
	n := 0
	for _, s := range t.spans {
		n += len(s)
	}
	return n
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, buf := range t.spans {
		for i := range buf {
			if err := enc.Encode(&buf[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
