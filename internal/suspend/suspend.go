// Package suspend implements cooperative checkpoint-suspend for long
// simulation runs. A graceful server shutdown cannot wait minutes for a
// full-scale sweep to finish, and killing it would forfeit the work; the
// middle path is a Controller the service layer attaches to each
// request's context. When shutdown begins the controller is flipped to
// "suspend requested"; the traffic step loop notices at its next cycle
// batch, serializes its complete run state (network snapshot plus runner
// position) as a NOCCKPT01 container, hands it to the controller's store,
// and unwinds with ErrSuspended. A restarted server that receives the
// same request finds the checkpoint under the run's content-addressed key
// and resumes from the recorded cycle — producing artifacts byte-identical
// to an uninterrupted run (pinned by the serve acceptance tests).
//
// The store is a directory of content-addressed .ckpt files written with
// ckpt.WriteFile, like the runcache disk tier: a reader never observes a
// partial checkpoint, and any corrupt file is deleted and treated as
// absent (the run simply restarts from zero).
package suspend

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"

	"heteronoc/internal/ckpt"
)

// ErrSuspended is returned (possibly wrapped) by a run that checkpointed
// itself in response to a suspend request instead of completing. Cache
// layers must not memoize it and service layers translate it into a
// retryable condition, not a failure.
var ErrSuspended = errors.New("suspend: run suspended to checkpoint")

// Controller carries the suspend signal and the checkpoint store for one
// request. A nil *Controller is inert.
type Controller struct {
	dir       string
	requested atomic.Bool

	// saves / resumes count store traffic for metrics and tests.
	saves   atomic.Int64
	resumes atomic.Int64
}

// NewController returns a controller storing checkpoints under dir.
// An empty dir disables checkpointing: Requested can still be flipped
// (runs then stop via their context), but Save refuses and Load misses.
func NewController(dir string) *Controller {
	return &Controller{dir: dir}
}

// RequestSuspend flips the suspend signal. Idempotent.
func (c *Controller) RequestSuspend() {
	if c != nil {
		c.requested.Store(true)
	}
}

// Requested reports whether a suspend has been requested.
func (c *Controller) Requested() bool {
	return c != nil && c.requested.Load()
}

// Stats returns how many checkpoints this controller saved and resumed.
func (c *Controller) Stats() (saves, resumes int64) {
	if c == nil {
		return 0, 0
	}
	return c.saves.Load(), c.resumes.Load()
}

// path content-addresses a run key, like the runcache disk tier.
func (c *Controller) path(key string) string {
	sum := sha256.Sum256([]byte("heteronoc-suspend|v1|" + key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+".ckpt")
}

// Save atomically stores a run checkpoint under key. data must be a
// complete NOCCKPT01 container (Load validates it on the way back in).
func (c *Controller) Save(key string, data []byte) error {
	if c == nil || c.dir == "" {
		return errors.New("suspend: no checkpoint directory configured")
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	if err := ckpt.WriteFile(c.path(key), data); err != nil {
		return err
	}
	c.saves.Add(1)
	return nil
}

// Load returns the stored checkpoint for key, validating the container's
// magic and CRC. A missing file misses; a corrupt file is deleted and
// misses — the run restarts from scratch rather than failing.
func (c *Controller) Load(key string) ([]byte, bool) {
	if c == nil || c.dir == "" {
		return nil, false
	}
	p := c.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	if _, err := ckpt.NewReader(data); err != nil {
		os.Remove(p)
		return nil, false
	}
	c.resumes.Add(1)
	return data, true
}

// Clear removes the checkpoint for key (called after the resumed run
// completes, so a crash mid-resume keeps the checkpoint).
func (c *Controller) Clear(key string) {
	if c == nil || c.dir == "" {
		return
	}
	os.Remove(c.path(key))
}

// Pending counts checkpoints in dir ("" → 0) — what a restarted server
// logs so suspended work is visible before the retries arrive.
func Pending(dir string) int {
	if dir == "" {
		return 0
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return 0
	}
	return len(names)
}
