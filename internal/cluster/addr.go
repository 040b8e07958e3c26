package cluster

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePeers parses a peer list of the form "1=host:port,2=host:port"
// (the -peers flag): comma-separated id=address pairs, one per remote
// replica. Whitespace around pairs is ignored. Duplicate ids and
// malformed pairs are errors. Replica ids are the same pipeline indices
// the averager folds in, so the deterministic reduction order is fixed
// by the job spec, not by connection order.
func ParsePeers(s string) (map[int]string, error) {
	peers := make(map[int]string)
	if strings.TrimSpace(s) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("cluster: peer %q: want id=host:port", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("cluster: peer %q: bad replica id: %v", part, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("cluster: peer %q: negative replica id", part)
		}
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("cluster: peer %q: empty address", part)
		}
		if _, dup := peers[n]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica id %d", n)
		}
		peers[n] = addr
	}
	return peers, nil
}
