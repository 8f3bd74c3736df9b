// Fixture for the soloengine analyzer: no goroutines, channel
// operations, or package-level writes inside the single-threaded engine
// core. Concurrency belongs to internal/runner, which owns whole private
// engines per worker.
package fixture

var counter int
var registry = map[string]int{}

type engine struct{ n int }

func spawn(fn func()) {
	go fn() // want "go statement in the single-threaded engine core"
}

func send(ch chan int, v int) {
	ch <- v // want "channel send in the engine core"
}

func recv(ch chan int) int {
	return <-ch // want "channel receive in the engine core"
}

func pick(a, b chan int) int {
	select { // want "select in the engine core"
	case v := <-a: // want "channel receive in the engine core"
		return v
	case v := <-b: // want "channel receive in the engine core"
		return v
	}
}

func bumpGlobal() {
	counter++ // want "write to package-level variable counter"
}

func storeGlobal(k string, v int) {
	registry[k] = v // want "write to package-level variable registry"
}

func localState() int {
	n := 0
	n++ // ok: locals are engine-owned
	return n
}

func (e *engine) step() {
	e.n++ // ok: receiver state rides inside one engine
}

func readGlobal() int {
	return counter // ok: reads do not break isolation
}

func allowedInit() {
	//dtlint:allow soloengine: init-time registration, runs before any engine starts
	counter = 0
}
