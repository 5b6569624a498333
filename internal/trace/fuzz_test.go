package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	. "repro/internal/trace"
)

// FuzzReadJSONL: the transcript reader never panics on arbitrary bytes,
// accepts only streams that open with the current schema header (so an
// unversioned detail-string transcript is refused, not read as zero
// payloads), and everything it accepts re-encodes through WriteJSONL
// and reads back to the same events. The seed corpus in
// testdata/fuzz/FuzzReadJSONL holds a header-only stream, one event of
// each payload-bearing kind, a schema-1 line, and an unknown kind.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var h struct {
			Schema int `json:"trace_schema"`
		}
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&h); err != nil || h.Schema != Schema {
			t.Fatalf("accepted a stream without the schema %d header (header %+v, err %v)", Schema, h, err)
		}
		rec := NewRecorder()
		for _, e := range events {
			rec.Record(e)
		}
		var buf bytes.Buffer
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(events) {
			t.Fatalf("round trip: %d events, want %d", len(back), len(events))
		}
		for i := range events {
			if back[i] != events[i] {
				t.Fatalf("event %d: %+v != %+v", i, back[i], events[i])
			}
		}
	})
}
