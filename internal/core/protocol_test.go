package core

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// show renders closures as "round why from payloads", one per closure.
func show(cs []closure[string]) string {
	var b strings.Builder
	for _, c := range cs {
		why := [...]string{"quorum", "detach", "deadline", "empty"}[c.why]
		fmt.Fprintf(&b, "%d %s %v %v;", c.round, why, c.from, c.payloads)
	}
	return b.String()
}

// TestProtocolEvents drives the core on virtual time, one case per event:
// no goroutines, no clock, no transport.
func TestProtocolEvents(t *testing.T) {
	const d = 10 * time.Millisecond
	t0 := time.Unix(0, 0)
	arrive := func(s *protocol[string], at time.Time, p, r int) string {
		cs, ok, _ := s.arrive(at, p, r, fmt.Sprintf("%c%d", 'a'+p, r))
		if !ok {
			return "discarded;"
		}
		return show(cs)
	}
	detach := func(s *protocol[string], p int) string {
		cs, _ := s.detach(t0, p)
		return show(cs)
	}
	cases := []struct {
		name string
		n    int
		run  func(s *protocol[string]) string
		want string
	}{
		{"quorum on arrival, folded in pipeline order", 2, func(s *protocol[string]) string {
			return arrive(s, t0, 1, 0) + arrive(s, t0, 0, 0)
		}, "0 quorum [0 1] [a0 b0];"},
		{"detach closes a waiting round", 2, func(s *protocol[string]) string {
			return arrive(s, t0, 0, 0) + detach(s, 1)
		}, "0 detach [0] [a0];"},
		{"a detached replica's update stands in for no one", 3, func(s *protocol[string]) string {
			return arrive(s, t0, 0, 0) + arrive(s, t0, 2, 0) + detach(s, 2) + "|" + arrive(s, t0, 1, 0)
		}, "|0 quorum [0 1 2] [a0 b0 c0];"},
		{"a round nobody is admitted to any more closes", 2, func(s *protocol[string]) string {
			return arrive(s, t0, 0, 0) + detach(s, 0) + detach(s, 1)
		}, "0 detach [0] [a0];"},
		{"rejoin admitted from the join round", 3, func(s *protocol[string]) string {
			out := detach(s, 2) + arrive(s, t0, 0, 0)
			join, _ := s.rejoin(2, -1)
			out += fmt.Sprintf("join %d|", join) + arrive(s, t0, 2, 0) + arrive(s, t0, 1, 0)
			return out + "|" + arrive(s, t0, 0, 1) + arrive(s, t0, 1, 1) + "|" + arrive(s, t0, 2, 1)
		}, "join 1|discarded;0 quorum [0 1] [a0 b0];||1 quorum [0 1 2] [a1 b1 c1];"},
		{"a peer's rejoin is admitted from the round it announces", 2, func(s *protocol[string]) string {
			out := detach(s, 1) + arrive(s, t0, 0, 0)
			s.await(t0, 1) // the watermark is past the announced round
			join, _ := s.rejoin(1, 1)
			return out + fmt.Sprintf("join %d|", join) + arrive(s, t0, 0, 1) + arrive(s, t0, 1, 1)
		}, "0 quorum [0] [a0];join 1|1 quorum [0 1] [a1 b1];"},
		{"partial round expired at its deadline", 2, func(s *protocol[string]) string {
			s.deadline = d
			out := arrive(s, t0, 0, 0)
			next, _ := s.nextDeadline()
			out += fmt.Sprintf("due %v|", next.Sub(t0)) + show(s.settle(t0.Add(d-1)))
			return out + "|" + show(s.settle(t0.Add(d)))
		}, "due 10ms||0 deadline [0] [a0];"},
		{"awaited round that never opened closes empty", 2, func(s *protocol[string]) string {
			s.deadline = d
			s.await(t0, 0)
			s.await(t0.Add(d/2), 0) // the first await starts the clock
			next, _ := s.nextDeadline()
			return fmt.Sprintf("due %v|", next.Sub(t0)) + show(s.settle(t0.Add(d)))
		}, "due 10ms|0 empty [] [];"},
		{"awaited round no replica is admitted to closes at once", 2, func(s *protocol[string]) string {
			out := detach(s, 0) + detach(s, 1)
			s.await(t0, 0)
			return out + show(s.settle(t0))
		}, "0 detach [] [];"},
		{"an awaited round that opens counts from its first arrival", 2, func(s *protocol[string]) string {
			s.deadline = d
			s.await(t0, 0)
			out := arrive(s, t0.Add(d/2), 0, 0) + show(s.settle(t0.Add(d))) + "|"
			return out + show(s.settle(t0.Add(d+d/2)))
		}, "|0 deadline [0] [a0];"},
		{"late update discarded, never re-opens its round", 2, func(s *protocol[string]) string {
			s.deadline = d
			out := arrive(s, t0, 0, 0) + show(s.settle(t0.Add(d)))
			return out + arrive(s, t0.Add(d), 1, 0) + fmt.Sprintf("open %d", len(s.open))
		}, "0 deadline [0] [a0];discarded;open 0"},
		{"one event closes rounds in ascending order", 3, func(s *protocol[string]) string {
			return arrive(s, t0, 0, 1) + arrive(s, t0, 1, 1) + arrive(s, t0, 0, 0) + arrive(s, t0, 1, 0) + detach(s, 2)
		}, "0 detach [0 1] [a0 b0];1 detach [0 1] [a1 b1];"},
		{"resume(join) floors the rounds the adopted reference holds", 2, func(s *protocol[string]) string {
			out := arrive(s, t0, 1, 1) // a peer's update before the reference state arrives
			cs, join := s.resume(t0, 0, 2)
			out += show(cs) + fmt.Sprintf("join %d|", join) + arrive(s, t0, 1, 1)
			return out + arrive(s, t0, 1, 2) + "|" + arrive(s, t0, 0, 2)
		}, "join 2|discarded;|2 quorum [0 1] [a2 b2];"},
		{"closeBelow floors the rounds a restored reference holds", 2, func(s *protocol[string]) string {
			s.closeBelow(3)
			return arrive(s, t0, 0, 2) + fmt.Sprintf("floor %d|", s.floor) + arrive(s, t0, 0, 3) + arrive(s, t0, 1, 3)
		}, "discarded;floor 3|3 quorum [0 1] [a3 b3];"},
		{"resume admits from the watermark past an already open round", 2, func(s *protocol[string]) string {
			out := arrive(s, t0, 1, 3)
			cs, join := s.resume(t0, 0, 2)
			return out + show(cs) + fmt.Sprintf("join %d", join)
		}, "3 quorum [1] [b3];join 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(newProtocol[string](tc.n)); got != tc.want {
				t.Fatalf("got  %q\nwant %q", got, tc.want)
			}
		})
	}
}

// TestProtocolWatermark: the join round is one past the highest round
// opened, closed or awaited.
func TestProtocolWatermark(t *testing.T) {
	s := newProtocol[string](2)
	t0 := time.Unix(0, 0)
	s.await(t0, 4)
	if s.mark != 5 {
		t.Fatalf("after await(4) mark %d, want 5", s.mark)
	}
	s.arrive(t0, 0, 7, "a7")
	s.resume(t0, 1, 9)
	if s.mark != 9 || !s.isClosed(8) || s.isClosed(9) {
		t.Fatalf("after resume(9): mark %d, closed(8) %v, closed(9) %v", s.mark, s.isClosed(8), s.isClosed(9))
	}
}
