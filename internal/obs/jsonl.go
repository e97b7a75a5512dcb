package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// wireEvent is the JSONL schema: one object per line. Absent optional
// fields decode to their sentinels (-1 for task/job/type, 0 for
// arg/val, "" for label), and the encoder omits exactly the sentinel
// values, so Event → JSONL → Event is the identity on valid events —
// the round-trip the FuzzJSONLRoundTrip target holds in place.
type wireEvent struct {
	T     int64    `json:"t"`
	Kind  string   `json:"kind"`
	Task  *int64   `json:"task,omitempty"`
	Job   *int64   `json:"job,omitempty"`
	Type  *int64   `json:"type,omitempty"`
	Arg   *int64   `json:"arg,omitempty"`
	Val   *float64 `json:"val,omitempty"`
	Label string   `json:"label,omitempty"`
}

// EncodeJSONL renders one event as its canonical JSONL line (no
// trailing newline). The event must be valid.
func EncodeJSONL(e Event) ([]byte, error) {
	return appendJSONL(nil, e)
}

// appendJSONL appends e's canonical line to dst: the bytes
// json.Marshal gives for its wireEvent, written field by field without
// reflection.
func appendJSONL(dst []byte, e Event) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendInt(dst, e.Time, 10)
	// Kind names are plain ASCII words that need no escaping.
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, '"')
	if e.Task >= 0 {
		dst = strconv.AppendInt(append(dst, `,"task":`...), e.Task, 10)
	}
	if e.Job >= 0 {
		dst = strconv.AppendInt(append(dst, `,"job":`...), e.Job, 10)
	}
	if e.Type >= 0 {
		dst = strconv.AppendInt(append(dst, `,"type":`...), e.Type, 10)
	}
	if e.Arg != 0 {
		dst = strconv.AppendInt(append(dst, `,"arg":`...), e.Arg, 10)
	}
	if e.Val != 0 {
		dst = appendJSONFloat(append(dst, `,"val":`...), e.Val)
	}
	if e.Label != "" {
		// Labels are rare (scope events only): let encoding/json
		// escape them, so HTML characters, invalid UTF-8 and U+2028
		// come out exactly as Marshal writes them.
		q, err := json.Marshal(e.Label)
		if err != nil {
			return nil, err
		}
		dst = append(append(dst, `,"label":`...), q...)
	}
	return append(dst, '}'), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: 'f'
// notation, or 'e' for magnitudes below 1e-6 or from 1e21 on, with a
// two-digit negative exponent shortened (e-07 → e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// DecodeJSONL parses one JSONL line back into an Event, rejecting
// unknown fields, unknown kinds and schema violations.
func DecodeJSONL(line []byte) (Event, error) {
	var w wireEvent
	if err := strictUnmarshal(line, &w); err != nil {
		return Event{}, fmt.Errorf("obs: bad trace line: %w", err)
	}
	k, ok := KindByName(w.Kind)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", w.Kind)
	}
	e := Event{Time: w.T, Kind: k, Task: -1, Job: -1, Type: -1, Label: w.Label}
	if w.Task != nil {
		e.Task = *w.Task
	}
	if w.Job != nil {
		e.Job = *w.Job
	}
	if w.Type != nil {
		e.Type = *w.Type
	}
	if w.Arg != nil {
		e.Arg = *w.Arg
	}
	if w.Val != nil {
		e.Val = *w.Val
	}
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	// Re-encoding must be canonical: an explicit sentinel ("task":-1)
	// or explicit zero ("arg":0) parses to the same Event its omitted
	// form does, so only the omitted form is canonical.
	if w.Task != nil && *w.Task < 0 || w.Job != nil && *w.Job < 0 || w.Type != nil && *w.Type < 0 {
		return Event{}, fmt.Errorf("obs: explicit sentinel field in trace line")
	}
	if w.Arg != nil && *w.Arg == 0 || w.Val != nil && *w.Val == 0 {
		return Event{}, fmt.Errorf("obs: explicit zero arg/val in trace line")
	}
	return e, nil
}

// strictUnmarshal is json.Unmarshal with unknown fields rejected.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Exactly one JSON value per line.
	if dec.More() {
		return fmt.Errorf("trailing data after event object")
	}
	return nil
}

// WriteJSONL writes a trace as JSON Lines: one canonical event object
// per line. The trace is validated (including scope nesting) first.
func WriteJSONL(w io.Writer, events []Event) error {
	if err := ValidateTrace(events); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	var line []byte
	for i, e := range events {
		var err error
		if line, err = appendJSONL(line[:0], e); err != nil {
			return fmt.Errorf("obs: event %d: %w", i, err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL trace written by WriteJSONL, validating
// every event and the scope nesting. Blank lines are permitted.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(bytes.TrimSpace(b)) == 0 {
			continue
		}
		e, err := DecodeJSONL(b)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := ValidateTrace(events); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	return events, nil
}
