package core

import (
	"fmt"
	"testing"

	"github.com/yask-engine/yask/internal/dataset"
	"github.com/yask-engine/yask/internal/object"
	"github.com/yask-engine/yask/internal/score"
	"github.com/yask-engine/yask/internal/vocab"
	"github.com/yask-engine/yask/internal/wal"
)

// TestPublishedContentMatchesFreshBuild checks what a long run of
// publishes serves, not just its shape. A seeded script of inserts and
// removes runs against an engine that publishes after every write or
// after every third, booted plainly or from mapped arenas (whose first
// write thaws the trees), with signatures on and off. Halfway and at
// the end, every answer of the full query surface must be
// byte-identical to an engine freshly built over the same collection:
// each publish re-freezes from trees that earlier publishes froze, so
// any state a freeze carries over wrongly shows up here.
func TestPublishedContentMatchesFreshBuild(t *testing.T) {
	ds, err := dataset.Generate(dataset.DefaultConfig(1200, 301))
	if err != nil {
		t.Fatal(err)
	}
	muts := mutationScript(ds, 320, 302)
	wqs := testWorkload(ds, 6, 303)
	for _, mmap := range []bool{false, true} {
		for _, sigs := range []bool{true, false} {
			for _, every := range []int{1, 3} {
				name := fmt.Sprintf("mmap=%v/signatures=%v/refreshEvery=%d", mmap, sigs, every)
				t.Run(name, func(t *testing.T) {
					opts := Options{MaxEntries: 8, RefreshEvery: every, DisableSignatures: !sigs}
					eng, v := publishTestEngine(t, ds, opts, mmap)
					qs := make([]score.Query, len(wqs))
					for i, wq := range wqs {
						qs[i] = wq.query(v)
					}
					for i, m := range muts {
						m.apply(t, eng, v)
						if i == len(muts)/2 || i == len(muts)-1 {
							eng.Refresh()
							ref := NewEngine(cloneCollection(eng.Collection()), Options{MaxEntries: 8, DisableSignatures: !sigs})
							assertEquivalent(t, fmt.Sprintf("after %d writes", i+1), ref, eng, qs)
						}
					}
				})
			}
		}
	}
}

// publishTestEngine returns an engine over ds configured by opts, and
// the vocabulary its keywords are interned in: memory-only, or durable
// and rebooted so that it serves mapped arenas.
func publishTestEngine(t *testing.T, ds *dataset.Dataset, opts Options, mmap bool) (*Engine, *vocab.Vocabulary) {
	t.Helper()
	if !mmap {
		return NewEngine(object.NewCollection(initialObjects(ds)), opts), ds.Vocab
	}
	dir := t.TempDir()
	first := opts
	first.DataDir, first.Vocab, first.Fsync, first.MmapArenas = dir, ds.Vocab, wal.SyncNone, true
	e, err := Open(initialObjects(ds), first)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	reboot := first
	reboot.Vocab = vocab.NewVocabulary()
	e, err = Open(nil, reboot)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if st := arenaStats(t, e); !st.MmapBoot || st.MappedNow != 2 {
		t.Fatalf("reboot did not map its arenas: %+v", st)
	}
	return e, reboot.Vocab
}
