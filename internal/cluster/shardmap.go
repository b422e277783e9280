package cluster

import (
	"bytes"
	"strings"

	"repro/internal/platform"
)

// ShardMap is a fleet's routing table: the consistent-hash ring over
// the shard names and each shard's base URL. Routers and routing
// clients build it from the same member list and vnode count, so they
// walk every platform's shards in the same failover order; each keeps
// its own policy for when to move on to the next shard. A built map is
// immutable and safe for concurrent use.
type ShardMap struct {
	ring *Ring
	base map[string]string
}

// NewShardMap places the given shards on a ring of vnodes points each.
// A shard is host:port or an http:// URL; the string is its ring member
// name verbatim, so every router and client of one fleet must spell it
// the same way.
func NewShardMap(shards []string, vnodes int) (*ShardMap, error) {
	m := &ShardMap{ring: NewRing(vnodes), base: make(map[string]string, len(shards))}
	for _, s := range shards {
		if err := m.ring.Add(s); err != nil {
			return nil, err
		}
		base := s
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		m.base[s] = strings.TrimRight(base, "/")
	}
	return m, nil
}

// Ring exposes the map's ring (read-only use).
func (m *ShardMap) Ring() *Ring { return m.ring }

// Base returns a shard's base URL, with scheme and without a trailing
// slash.
func (m *ShardMap) Base(shard string) string { return m.base[shard] }

// Route decodes a raw platform document and returns every shard in
// failover order: the owner of the platform's fingerprint first, then
// the other members clockwise around the ring.
func (m *ShardMap) Route(platformJSON []byte) ([]string, error) {
	dec, err := platform.Read(bytes.NewReader(platformJSON))
	if err != nil {
		return nil, err
	}
	return m.ring.Owners(dec.Hash(), m.ring.Len()), nil
}
