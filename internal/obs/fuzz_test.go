package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzJSONLRoundTrip holds the JSONL encode/decode pair together: any
// line DecodeJSONL accepts must re-encode to a canonical form that
// decodes back to the identical event, and that canonical form must be
// a fixed point of the round-trip (so every valid event has exactly
// one wire representation).
func FuzzJSONLRoundTrip(f *testing.F) {
	seeds := sampleTrace()
	for _, e := range seeds {
		line, err := EncodeJSONL(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"t":0,"kind":"xutil","type":2,"arg":3,"val":0.5}`))
	f.Add([]byte(`{"t":9,"kind":"decision","task":7,"type":1,"arg":4,"val":1e300}`))
	f.Add([]byte(`{"t":1,"kind":"scope-begin","label":"KGreedy"}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"t":0,"kind":"start","task":1,"type":0,"job":-1}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		e, err := DecodeJSONL(line)
		if err != nil {
			return // invalid lines just need to be rejected, not crash
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("DecodeJSONL returned an invalid event %+v: %v", e, err)
		}
		enc, err := EncodeJSONL(e)
		if err != nil {
			t.Fatalf("decoded event %+v does not re-encode: %v", e, err)
		}
		e2, err := DecodeJSONL(enc)
		if err != nil {
			t.Fatalf("canonical line %s does not decode: %v", enc, err)
		}
		if e2 != e {
			t.Fatalf("round-trip changed the event: %+v -> %s -> %+v", e, enc, e2)
		}
		enc2, err := EncodeJSONL(e2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point: %s vs %s", enc, enc2)
		}
	})
}

// marshalJSONL is the reflection-based encoder appendJSONL replaced,
// kept as the reference its bytes must equal.
func marshalJSONL(e Event) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	w := wireEvent{T: e.Time, Kind: e.Kind.String(), Label: e.Label}
	if e.Task >= 0 {
		w.Task = &e.Task
	}
	if e.Job >= 0 {
		w.Job = &e.Job
	}
	if e.Type >= 0 {
		w.Type = &e.Type
	}
	if e.Arg != 0 {
		w.Arg = &e.Arg
	}
	if e.Val != 0 {
		w.Val = &e.Val
	}
	return json.Marshal(w)
}

// FuzzJSONLEncodeMatchesMarshal requires EncodeJSONL to produce the
// reference encoder's bytes for every event, and to reject exactly the
// events it rejects (NaN and infinite vals among them).
func FuzzJSONLEncodeMatchesMarshal(f *testing.F) {
	for _, e := range sampleTrace() {
		f.Add(e.Time, uint8(e.Kind), e.Task, e.Job, e.Type, e.Arg, e.Val, e.Label)
	}
	scope := uint8(KindScopeBegin)
	xutil := uint8(KindXUtil)
	for _, v := range []float64{0.5, 1e-7, 1e-6, 123456789e-15, 1e20, 1e21, 5e-324, math.MaxFloat64,
		-2.5e-9, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(int64(3), xutil, int64(-1), int64(-1), int64(1), int64(2), v, "")
	}
	for _, l := range []string{"<a&b>", "\xff\xfeok", "line\u2028sep\u2029", `q"\`, "\x01\t", "MQB+Exp"} {
		f.Add(int64(0), scope, int64(-1), int64(-1), int64(-1), int64(0), 0.0, l)
	}
	f.Fuzz(func(t *testing.T, tm int64, kind uint8, task, job, typ, arg int64, val float64, label string) {
		e := Event{Time: tm, Kind: Kind(kind), Task: task, Job: job, Type: typ, Arg: arg, Val: val, Label: label}
		want, werr := marshalJSONL(e)
		got, err := EncodeJSONL(e)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%+v: EncodeJSONL error %v, reference error %v", e, err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %s\nwant %s", e, got, want)
		}
	})
}
