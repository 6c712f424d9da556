package server

import (
	"context"
	"encoding/json"
	"reflect"
	"slices"
	"testing"
	"time"
)

// FuzzSpecNormalize decodes arbitrary JSON into a Spec and normalizes
// it. Properties: normalize never panics; an accepted spec is a fixed
// point of normalize; its deadline is never negative, and jobDeadline
// resolves it without overflow (to itself when no server policy
// applies, never below zero under one); and for the kinds whose identity is a pure
// function of the spec (mc, translate, soc) a JSON round trip — the
// job ledger's persistence path — keeps the prepare identity.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		// Budgets that overflow a time.Duration.
		`{"kind":"translate","param":"iip3","deadline_ms":18446744073710}`,
		`{"kind":"mc","timeout_sec":1e30}`,
		`{"kind":"campaign","patterns":512,"seed":3}`,
		`{"kind":"mc","devices":6,"capture_n":1024,"timeout_sec":1.5}`,
		`{"kind":"translate","param":"P1dB","method":"nominal","samples":4096,"batch_size":64}`,
		`{"kind":"soc","tam_widths":[4,8,16],"cores":["rx-a","tx"],"iterations":16,"deadline_ms":250}`,
		`{"kind":"soc","tam_widths":[0]}`,
		`{"kind":""}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		if err := sp.normalize(); err != nil {
			return
		}
		again := sp
		again.TAMWidths = slices.Clone(sp.TAMWidths)
		again.Cores = slices.Clone(sp.Cores)
		if err := again.normalize(); err != nil {
			t.Fatalf("second normalize rejected an accepted spec %+v: %v", sp, err)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("normalize is not idempotent:\nfirst  %+v\nsecond %+v", sp, again)
		}
		if sp.DeadlineMS < 0 {
			t.Fatalf("accepted deadline_ms %d < 0", sp.DeadlineMS)
		}
		if d := jobDeadline(&sp, 0, 0); sp.DeadlineMS > 0 && int64(d/time.Millisecond) != sp.DeadlineMS {
			t.Fatalf("accepted deadline_ms %d resolved to %v", sp.DeadlineMS, d)
		}
		for _, policy := range [][2]time.Duration{{0, 0}, {time.Second, 0}, {0, time.Minute}} {
			if d := jobDeadline(&sp, policy[0], policy[1]); d < 0 {
				t.Fatalf("deadline_ms %d resolved to %v under default %v, cap %v",
					sp.DeadlineMS, d, policy[0], policy[1])
			}
		}
		if sp.Kind == "campaign" {
			return // its identity hashes the built stimulus
		}
		want := specIdentity(t, sp)
		back := cloneSpec(t, sp)
		if err := back.normalize(); err != nil {
			t.Fatalf("round-tripped spec rejected: %v", err)
		}
		if got := specIdentity(t, back); got != want {
			t.Fatalf("JSON round trip changed the identity %x -> %x (%+v -> %+v)", want, got, sp, back)
		}
	})
}

// cloneSpec is sp through a JSON round trip.
func cloneSpec(t *testing.T, sp Spec) Spec {
	t.Helper()
	raw, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return out
}

// specIdentity is the prepare identity of a normalized mc, translate
// or soc spec.
func specIdentity(t *testing.T, sp Spec) uint64 {
	t.Helper()
	var tk task
	switch sp.Kind {
	case "mc":
		tk = &mcTask{spec: sp}
	case "soc":
		tk = &socTask{spec: sp}
	default:
		tk = &translateTask{spec: sp}
	}
	id, err := tk.prepare(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return id
}
