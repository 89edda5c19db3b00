package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// overflowSnapshot is a histogram_snapshot whose four buckets of 2^62 sum
// to 2^64, which wraps an int64 to the claimed count of 0.
const overflowSnapshot = `{"seq":1,"kind":"histogram_snapshot","iter":-1,"s":{"name":"x"},"n":{"count":0,"b00":4611686018427387904,"b01":4611686018427387904,"b02":4611686018427387904,"b03":4611686018427387904}}`

// FuzzDecodeJSONL checks the journal decoder on arbitrary bytes: it never
// panics, and every journal it accepts, re-marshalled event by event,
// decodes again and re-marshals to the same bytes.
func FuzzDecodeJSONL(f *testing.F) {
	for _, seed := range []string{
		overflowSnapshot,
		`{"seq":1,"kind":"histogram_snapshot","iter":-1,"s":{"name":"core.check"},"n":{"count":3,"sum_ns":5000,"b03":2,"b27":1}}`,
		"{\"seq\":1,\"kind\":\"iteration_start\",\"iter\":0,\"t_ns\":5,\"trace\":\"a\",\"span\":1}\n" +
			"{\"seq\":2,\"kind\":\"check_result\",\"iter\":0,\"t_ns\":9,\"dur_ns\":3,\"trace\":\"a\",\"parent\":1,\"n\":{\"deadlock_free\":1}}\n" +
			"{\"seq\":3,\"kind\":\"verdict\",\"iter\":0,\"t_ns\":9,\"trace\":\"a\",\"parent\":1,\"s\":{\"verdict\":\"proven\"}}\n",
		"{\"seq\":2,\"kind\":\"note\",\"iter\":-1}\n{\"seq\":9,\"kind\":\"verdict\",\"iter\":0}\n",
		`{"seq":1,"kind":"note","iter":-1,"extra":true}`,
		`{"seq":1,"kind":"note","iter":-1} {"seq":2,"kind":"note","iter":-1}`,
		"",
	} {
		f.Add([]byte(seed))
	}
	marshal := func(t *testing.T, events []Event) []byte {
		var buf bytes.Buffer
		for _, e := range events {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("accepted event does not marshal: %v", err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := marshal(t, events)
		again, err := DecodeJSONL(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-marshalled journal rejected: %v\n%s", err, first)
		}
		if second := marshal(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-marshalling is not stable:\n%s\n%s", first, second)
		}
	})
}
