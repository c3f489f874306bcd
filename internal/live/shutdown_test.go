package live

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// TestCloseUnderSubmitLoad closes engines while a client keeps submitting
// and the pacer keeps writing the WAL. The pacer must never run the
// simulator after Close has closed the WAL file: that write panics
// ("storage: mirror write: file already closed").
func TestCloseUnderSubmitLoad(t *testing.T) {
	for i := 0; i < 20; i++ {
		cfg := testConfig(t, 1)
		dir := t.TempDir()
		e, err := StartEngine(EngineOptions{
			Config:    cfg,
			Self:      0,
			WALPath:   filepath.Join(dir, "wal"),
			TracePath: filepath.Join(dir, "trace.r0.jsonl"),
			Tick:      100 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				e.Bcast(types.Value(fmt.Sprintf("v%d", k)))
			}
		}()
		time.Sleep(time.Duration(5+i) * time.Millisecond)
		e.Close()
		close(stop)
		wg.Wait()
	}
}
