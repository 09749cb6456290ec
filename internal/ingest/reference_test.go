package ingest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// referenceParseLine is a verbatim copy of parseLine as it was before
// the plain-line fast path: the oracle FuzzParseLineMatchesReference
// holds parseLine to.
func referenceParseLine(line []byte) (Doc, error) {
	var d Doc
	if len(line) > 0 && line[0] == '"' {
		if err := json.Unmarshal(line, &d.Text); err != nil {
			return Doc{}, err
		}
	} else {
		var raw struct {
			Text string                     `json:"text"`
			Meta map[string]json.RawMessage `json:"meta"`
		}
		if err := json.Unmarshal(line, &raw); err != nil {
			return Doc{}, err
		}
		d.Text = raw.Text
		if len(raw.Meta) > 0 {
			d.Meta = make(map[string]string, len(raw.Meta))
			for k, v := range raw.Meta {
				t := bytes.TrimSpace(v)
				if len(t) == 0 || t[0] != '"' {
					return Doc{}, fmt.Errorf("ingest: meta value for %q is not a string", k)
				}
				var s string
				if err := json.Unmarshal(t, &s); err != nil {
					return Doc{}, fmt.Errorf("ingest: meta value for %q: %w", k, err)
				}
				d.Meta[k] = s
			}
		}
	}
	if d.Text == "" {
		return Doc{}, errors.New("ingest: document has no text")
	}
	return d, nil
}

// FuzzParseLineMatchesReference holds parseLine to the encoding/json
// version it replaced: on any line the same Doc (metadata nil-ness
// included) and the same error, in presence and message. The seeds
// sit on both sides of every rule of the fast path, so each one
// either takes it or falls through to encoding/json.
func FuzzParseLineMatchesReference(f *testing.F) {
	for _, seed := range []string{
		`{"text":"hello world"}`,
		`{"text":"x","meta":{"tag":"t1"}}`,
		`{"meta":{"tag":"t1","src":"handbook"},"text":"meta first"}`,
		` { "text" : "spaced" , "meta" : { "a" : "b" } } `,
		"{\"text\":\"tabs\"\t,\r\n\"meta\":{}}",
		`{"text":"x","meta":{}}`,
		`{"text":"x","meta":{"":""}}`,
		`{"text":"x","meta":{"a":"1","a":"2"}}`,
		`{"text":"x","meta":{"a":1,"a":"2"}}`,
		`{"text":"x","meta":{"a":"1"},"meta":{"b":"2"}}`,
		`{"text":"first","text":"second"}`,
		`{"TEXT":"case folded"}`,
		`{"Text":"x","Meta":{"a":"b"}}`,
		`{"text":"x","other":"y"}`,
		`{"text":"esc\"aped"}`,
		`{"text":"uniécode"}`,
		`{"text":"uni\u00e9code"}`,
		`{"text":"x","meta":{"k":"v\n"}}`,
		`{"text":"café … “quoted”"}`,
		"{\"text\":\"bad \xff utf8\"}",
		"{\"text\":\"ctl \x01 byte\"}",
		"{\"text\":\"del \x7f byte\"}",
		`{"text":""}`,
		`{"meta":{"k":"v"}}`,
		`{}`,
		`{"text":null}`,
		`{"text":"x","meta":null}`,
		`{"text":42}`,
		`{"text":"x","meta":{"a":1}}`,
		`{"text":"x","meta":{"a":null}}`,
		`{"text":"x","meta":{"a":["l"]}}`,
		`{"text":"x","meta":5}`,
		`{"text":"x"} trailing`,
		`{"text":"x"}}`,
		`{"text":"x",}`,
		`{"text":"x","meta":{"a":"b",}}`,
		`{"text" "x"}`,
		`{"text":"x"`,
		`"a bare string"`,
		`"bare \"escaped\""`,
		` "leading space bare"`,
		`["not","an","object"]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := parseLine(line)
		want, wantErr := referenceParseLine(line)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("parseLine(%q) error %v, want %v", line, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parseLine(%q) = %#v, want %#v", line, got, want)
		}
	})
}

// BenchmarkParseLine times one search_scan-shaped line (tagged, plain
// words: the fast path) and the same document with an escape in its
// text (the encoding/json path).
func BenchmarkParseLine(b *testing.B) {
	const text = "employees accrue fourteen days of annual leave each year " +
		"after notice d1234q."
	for _, bc := range []struct {
		name string
		line string
	}{
		{"plain", `{"meta":{"tag":"t3"},"text":"` + text + `"}`},
		{"escaped", `{"meta":{"tag":"t3"},"text":"` + text + ` \"quoted\""}`},
	} {
		line := []byte(bc.line)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parseLine(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
