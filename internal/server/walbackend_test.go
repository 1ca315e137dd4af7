package server

import (
	"context"
	"reflect"
	"testing"

	"ssrec/internal/core"
	"ssrec/internal/model"
	"ssrec/internal/wal"
)

// TestWALBackendQueryRegistrationDurable pins the query-side durability
// rule: a cold query registers items (the engine prologue mutates the
// replicated dictionaries), so the backend must log that registration
// BEFORE it applies — replaying the log into a twin engine reproduces
// the served state exactly. Warm queries must cost no log record.
func TestWALBackendQueryRegistrationDurable(t *testing.T) {
	live, _ := trainedEngine(t)
	twin, _ := trainedEngine(t)

	log, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.PolicyBatch})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	defer log.Close()
	wb := WrapWAL(live, log)

	cold := []model.Item{
		{ID: "wal-cold-0", Category: "cat02", Producer: "up0003", Entities: []string{"c02e001"}},
		{ID: "wal-cold-1", Category: "cat05", Producer: "up0001", Entities: []string{"c05e002"}},
	}
	if _, err := wb.RecommendBatch(context.Background(), cold, core.WithK(5)); err != nil {
		t.Fatalf("cold RecommendBatch: %v", err)
	}
	if got := log.Stats().Appends; got != 1 {
		t.Fatalf("cold batch: appends = %d, want 1 (registration logged)", got)
	}

	// Warm repeat: nothing new to register, nothing to log.
	if _, err := wb.RecommendBatch(context.Background(), cold, core.WithK(5)); err != nil {
		t.Fatalf("warm RecommendBatch: %v", err)
	}
	if got := log.Stats().Appends; got != 1 {
		t.Fatalf("warm batch: appends = %d, want 1 (warm queries are free)", got)
	}

	// An observe after the registrations, so replay ordering matters.
	obs := []core.Observation{{UserID: "uc00001", Item: cold[0], Timestamp: 1700000000}}
	if _, err := wb.ObserveBatch(context.Background(), obs); err != nil {
		t.Fatalf("ObserveBatch: %v", err)
	}

	// Recovery: replay the log into the twin and compare answers.
	if err := log.Replay(0, func(rec wal.Record) error {
		return wal.Apply(context.Background(), rec, twin)
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, p := range cold {
		want := live.Recommend(p, 10)
		got := twin.Recommend(p, 10)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("recovered engine diverges on %s:\n live %v\n twin %v", p.ID, want, got)
		}
	}
}
