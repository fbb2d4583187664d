package serve

import "testing"

// TestResponseKey checks the memo identity of a read, the typed key
// its parse renders: the same fields in any parameter order, or with a
// default omitted instead of spelled out, are one key; a different
// config order, field split, body, method or read kind is another.
func TestResponseKey(t *testing.T) {
	get := func(raw string) readReq { return readReq{readSweepGet, raw} }
	post := func(body string) readReq { return readReq{readSweepPost, body} }
	figure := func(raw string) readReq { return readReq{readFigure, raw} }
	ranking := func(raw string) readReq { return readReq{readPlacement, raw} }
	tests := []struct {
		name string
		a, b readReq
		same bool
	}{
		{"parameter order", get("scenario=both&config=2&config=6"), get("config=2&scenario=both&config=6"), true},
		{"empty query", get(""), get(""), true},
		{"empty scenario is the default", get("scenario="), get(""), true},
		{"hurricane is the default", get("scenario=hurricane"), get(""), true},
		{"HWD placement is the default", get("primary=honolulu-cc&second=waiau-plant&data_center=drfortress-dc"), get(""), true},
		{"standard configs are the default", get("config=2&config=2-2&config=6&config=6-6&config=6%2B6%2B6"), get(""), true},
		{"body field order", post(`{"scenario":"both","configs":["2"]}`), post(`{"configs":["2"],"scenario":"both"}`), true},
		{"config order", get("config=2&config=6"), get("config=6&config=2"), false},
		{"escaped separators", get("primary=a%26second%3Db"), get("primary=a&second=b"), false},
		{"field split", get("primary=ab&second=c"), get("primary=a&second=bc"), false},
		{"scenario", get("scenario=both"), get(""), false},
		{"ensemble named", get("ensemble=oahu"), get(""), false},
		{"body content", post(`{"scenario":"both"}`), post(`{"scenario":"intrusion"}`), false},
		{"method", post(`{"scenario":"both"}`), get("scenario=both"), false},
		{"figure id", figure("9"), figure("10"), false},
		{"figure id spelling", figure("09"), figure("9"), true},
		{"read kind", figure("9"), get(""), false},
		{"objective default", ranking("primary=x&objective=green"), ranking("primary=x"), true},
		{"objective", ranking("primary=x&objective=weighted"), ranking("primary=x"), false},
		{"limit", ranking("primary=x&limit=2"), ranking("primary=x"), false},
		{"data center", ranking("primary=x&data_center=y"), ranking("primary=x"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, a, err := tt.a.parse()
			if err != nil {
				t.Fatalf("%+v: %v", tt.a, err)
			}
			_, b, err := tt.b.parse()
			if err != nil {
				t.Fatalf("%+v: %v", tt.b, err)
			}
			if (a == b) != tt.same {
				t.Errorf("%+v and %+v: keys %q and %q, want same=%t", tt.a, tt.b, a, b, tt.same)
			}
		})
	}
}
