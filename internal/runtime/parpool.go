package runtime

import "time"

// Par-arm worker pool. A par whose every branch is a single remote update
// never reaches it: compilePar lowers that par to one send group issued from
// the scheduling goroutine. Every other par — arms with control flow,
// waits, host calls, or the interpreter's arms — runs each arm here. Such
// arms can block on remote delivery acknowledgments for link-scale
// latencies, and the send path underneath them (statement step ->
// sendUpdates -> substrate -> bridge -> transport encode) is deep enough
// that a fresh goroutine grows its stack every time — newstack/copystack
// were a top CPU cost in the remote-update benchmark. Arms therefore run on
// reusable workers that keep their grown stacks; when every worker is busy
// the arm spawns a fresh one instead of queueing, so the pool never delays
// a scheduling, it only recycles goroutines.

// parTasks hands an arm to an idle worker. Unbuffered: a handoff succeeds
// only if a worker is already blocked receiving.
var parTasks = make(chan func())

// parWorkerIdle is how long a worker lingers for its next arm before
// exiting and giving its stack back.
const parWorkerIdle = time.Second

// goPar runs fn on a pooled worker goroutine, spawning a new worker when
// none is idle.
func goPar(fn func()) {
	select {
	case parTasks <- fn:
	default:
		go parWorker(fn)
	}
}

func parWorker(fn func()) {
	fn()
	idle := time.NewTimer(parWorkerIdle)
	defer idle.Stop()
	for {
		select {
		case fn = <-parTasks:
			fn()
			if !idle.Stop() {
				<-idle.C
			}
			idle.Reset(parWorkerIdle)
		case <-idle.C:
			return
		}
	}
}
