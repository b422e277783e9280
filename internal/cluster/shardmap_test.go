package cluster

import (
	"reflect"
	"testing"
)

// TestShardMapBase: a bare host:port gains http://, a URL keeps its
// scheme, and trailing slashes go — while the member name stays
// verbatim.
func TestShardMapBase(t *testing.T) {
	shards := []string{"a.example:1", "http://b.example:2/", "https://c.example:3//"}
	m, err := NewShardMap(shards, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a.example:1", "http://b.example:2", "https://c.example:3"}
	for i, s := range shards {
		if got := m.Base(s); got != want[i] {
			t.Errorf("Base(%q) = %q, want %q", s, got, want[i])
		}
	}
	if !reflect.DeepEqual(m.Ring().Members(), []string{"a.example:1", "http://b.example:2/", "https://c.example:3//"}) {
		t.Errorf("members %v, want the shard strings verbatim", m.Ring().Members())
	}
	if _, err := NewShardMap([]string{"a:1", "a:1"}, 8); err == nil {
		t.Error("duplicate shard accepted")
	}
}
