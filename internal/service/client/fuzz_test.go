package client

import (
	"net/http"
	"testing"
	"time"
)

// FuzzParseRetryAfter: Retry-After arrives from whatever answered the
// request, so parseRetryAfter must never panic and every hint it
// returns — for any header text at any clock reading — must lie in
// [0, maxRetryAfter]: never a negative sleep, never one past the cap.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for _, v := range []string{
		"", "0", "7", "-5", "1.5", "soon", "999999999999", "9223372036854775807",
		now.Add(90 * time.Second).Format(http.TimeFormat),
		now.Add(-time.Hour).Format(http.TimeFormat),
		"Mon, 01 Jan 0001 00:00:00 GMT",
		"Fri, 31 Dec 9999 23:59:59 GMT",
	} {
		f.Add(v, now.Unix())
	}
	f.Fuzz(func(t *testing.T, v string, nowUnix int64) {
		got := parseRetryAfter(v, time.Unix(nowUnix, 0))
		if got < 0 || got > maxRetryAfter {
			t.Fatalf("parseRetryAfter(%q) = %s, outside [0, %s]", v, got, maxRetryAfter)
		}
	})
}
