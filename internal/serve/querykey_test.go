package serve

import (
	"net/url"
	"testing"
)

// TestResponseKey checks the memo identity of a read: the same query
// in any key order is one key, while a different value order, a
// different split of the same characters, another body or another
// method is a different key.
func TestResponseKey(t *testing.T) {
	key := func(method, rawQuery, body string) string {
		q, err := url.ParseQuery(rawQuery)
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		if body != "" {
			b = []byte(body)
		}
		return ResponseKey(method, "/v1/sweep", q, b)
	}
	same := [][2]string{
		{"scenario=both&config=2&config=6", "config=2&scenario=both&config=6"},
		{"", ""},
		{"a=%26b%3D", "a=%26b%3D"},
		{"a=", "a"}, // both parse to one empty value
	}
	for _, p := range same {
		if a, b := key("GET", p[0], ""), key("GET", p[1], ""); a != b {
			t.Errorf("%q and %q: keys differ: %q vs %q", p[0], p[1], a, b)
		}
	}
	distinct := [][2]string{
		{"config=2&config=6", "config=6&config=2"},
		{"a=b%26c%3Dd", "a=b&c=d"},
		{"a=bc", "ab=c"},
		{"a=&a=", "a="},
		{"a=1", ""},
	}
	for _, p := range distinct {
		if a, b := key("GET", p[0], ""), key("GET", p[1], ""); a == b {
			t.Errorf("%q and %q share key %q", p[0], p[1], a)
		}
	}
	if key("POST", "", `{"scenario":"both"}`) == key("POST", "", `{"scenario":"intrusion"}`) {
		t.Error("different bodies share a key")
	}
	if key("GET", "a=1", "") == key("POST", "a=1", "") {
		t.Error("different methods share a key")
	}
}
