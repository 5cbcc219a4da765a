package flexpass

import (
	"fmt"
	"strings"
	"testing"
)

// TestStartFlowRejectsUnknownTransport: a transport name no scheme is
// registered under panics at the call that names it — for a scheduled
// start too, not later from inside Run when the start would fire.
func TestStartFlowRejectsUnknownTransport(t *testing.T) {
	starts := map[string]func(*Testbed){
		"StartFlow":   func(tb *Testbed) { tb.StartFlow("bogus", 0, 1, 1000) },
		"StartFlowAt": func(tb *Testbed) { tb.StartFlowAt(Millisecond, "bogus", 0, 1, 1000) },
	}
	for name, start := range starts {
		t.Run(name, func(t *testing.T) {
			tb := NewTestbed(TestbedConfig{Hosts: 2})
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"bogus"`) {
					t.Fatalf("%s recovered %v, want a panic naming the transport", name, r)
				}
			}()
			start(tb)
		})
	}
}
