package platform

import (
	"context"
	"errors"
	"testing"

	"github.com/htacs/ata/internal/obs"
	"github.com/htacs/ata/internal/shard"
	"github.com/htacs/ata/internal/stream"
	"github.com/htacs/ata/internal/workload"
)

// TestClosedBackendsReturnErrClosed closes a 2-shard engine and a 2-node
// loopback gateway, each with a registered worker, and checks that every
// per-worker StreamBackend call, an offer and a registration then fail
// with shard.ErrClosed.
func TestClosedBackendsReturnErrClosed(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{Seed: 5, Universe: universe})
	if err != nil {
		t.Fatal(err)
	}
	workers, tasks := g.Workers(2), g.Tasks(1, 1)
	ctx := context.Background()
	calls := []struct {
		name string
		call func(b StreamBackend, id string) error
	}{
		{"OfferTaskCtx", func(b StreamBackend, _ string) error { _, err := b.OfferTaskCtx(ctx, tasks[0]); return err }},
		{"AddWorkerCtx", func(b StreamBackend, _ string) error { _, err := b.AddWorkerCtx(ctx, workers[1]); return err }},
		{"RemoveWorkerCtx", func(b StreamBackend, id string) error { _, err := b.RemoveWorkerCtx(ctx, id); return err }},
		{"CompleteCtx", func(b StreamBackend, id string) error { _, err := b.CompleteCtx(ctx, id, tasks[0].ID); return err }},
		{"CompleteRead", func(b StreamBackend, id string) error { _, err := b.CompleteRead(ctx, id, tasks[0].ID); return err }},
		{"ActiveTasks", func(b StreamBackend, id string) error { _, err := b.ActiveTasks(id); return err }},
		{"Worker", func(b StreamBackend, id string) error { _, err := b.Worker(id); return err }},
		{"Completed", func(b StreamBackend, id string) error { _, err := b.Completed(id); return err }},
		{"SetTrust", func(b StreamBackend, id string) error { _, err := b.SetTrust(id, 0.5); return err }},
		{"Trust", func(b StreamBackend, id string) error { _, err := b.Trust(id); return err }},
		{"SetWindow", func(b StreamBackend, id string) error { return b.SetWindow(id, 1) }},
		{"Window", func(b StreamBackend, id string) error { _, err := b.Window(id); return err }},
	}
	eng, err := shard.New(shard.Config{
		Shards: 2, StealInterval: -1, Registry: obs.NewRegistry(),
		Stream: stream.Config{Xmax: 3, BufferLimit: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	gw := loopbackGateway(t, nil)
	for _, b := range []struct {
		name  string
		b     StreamBackend
		close func()
	}{
		{"engine", eng, eng.Close},
		{"gateway", gw, func() { gw.Close() }},
	} {
		if _, err := b.b.AddWorkerCtx(ctx, workers[0]); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		b.close()
		for _, c := range calls {
			if err := c.call(b.b, workers[0].ID); !errors.Is(err, shard.ErrClosed) {
				t.Errorf("%s.%s after Close: %v, want shard.ErrClosed", b.name, c.name, err)
			}
		}
	}
}
