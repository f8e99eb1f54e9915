package fixture

import (
	"math/rand"
	"os"
	"time"
)

// stamp reads the wall clock: the violation under test.
func stamp() int64 {
	return time.Now().UnixNano()
}

// wait blocks on real time.
func wait() {
	time.Sleep(10 * time.Millisecond)
}

// newSource seeds from the process id: a subsystem detached from the
// engine's seed plumbing stops replaying though every call site looks clean.
func newSource() *rand.Rand {
	return rand.New(rand.NewSource(int64(os.Getpid())))
}
