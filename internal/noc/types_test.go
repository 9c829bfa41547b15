package noc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassFlits(t *testing.T) {
	if got := ClassRequest.Flits(); got != 1 {
		t.Errorf("request flits = %d, want 1", got)
	}
	if got := ClassReply.Flits(); got != 4 {
		t.Errorf("reply flits = %d, want 4", got)
	}
}

func TestClassString(t *testing.T) {
	if ClassRequest.String() != "request" || ClassReply.String() != "reply" {
		t.Errorf("class strings = %q, %q", ClassRequest, ClassReply)
	}
}

func TestPacketHopAdvance(t *testing.T) {
	p := &Packet{ID: 1, Class: ClassReply, Size: 4}
	if p.Hop() != 0 {
		t.Fatalf("fresh packet at hop %d", p.Hop())
	}
	p.AdvanceHop()
	p.AdvanceHop()
	if p.Hop() != 2 || p.HopsDone != 2 {
		t.Fatalf("hop = %d hopsDone = %d, want 2, 2", p.Hop(), p.HopsDone)
	}
}

func TestPacketResetForRetransmit(t *testing.T) {
	p := &Packet{ID: 9, Created: 100, Injected: 120}
	p.AdvanceHop()
	p.AdvanceHop()
	p.ResetForRetransmit()
	if p.Hop() != 0 {
		t.Errorf("hop after reset = %d", p.Hop())
	}
	if p.HopsDone != 0 {
		t.Errorf("hopsDone after reset = %d", p.HopsDone)
	}
	if p.Retransmits != 1 {
		t.Errorf("retransmits = %d, want 1", p.Retransmits)
	}
	if p.Created != 100 {
		t.Errorf("creation time changed: %d", p.Created)
	}
}

func TestPacketRetransmitCounterAccumulates(t *testing.T) {
	p := &Packet{}
	for i := 0; i < 5; i++ {
		p.AdvanceHop()
		p.ResetForRetransmit()
	}
	if p.Retransmits != 5 {
		t.Errorf("retransmits = %d, want 5", p.Retransmits)
	}
}

func TestWorstPriorityOrdering(t *testing.T) {
	check := func(raw uint64) bool {
		p := Priority(raw)
		return p <= WorstPriority
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{ID: 4, Flow: 2, Src: 1, Dst: 6, Class: ClassRequest}
	s := p.String()
	for _, want := range []string{"pkt 4", "flow 2", "1->6", "request"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
