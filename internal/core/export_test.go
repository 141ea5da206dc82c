package core

// GoStage puts n's apply stage on a goroutine of its own, as Init does
// under an engine.Spawner: tests that drive a node from the simulator use
// it to run the goroutine driver there. Call it before the node commits;
// Node.Close stops the goroutine.
func GoStage(n *Node) { n.stage.start(func(run func()) { go run() }) }
