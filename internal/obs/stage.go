package obs

// Stage is one step of a put's path from client to follower: the one
// taxonomy the server's kvserve_stage_seconds histograms, the span
// events lptrace assembles, and the planner's StagePlan all index by.
// A stage's label is what the histograms carry in stage="...", and its
// span pair bounds it in an assembled timeline.
type Stage uint8

const (
	StageRoute Stage = iota // client send → mailbox admit (wire + router + reader)
	StageQueue              // mailbox wait
	StageFill               // open-batch residence until seal
	StageFlush              // seal → write set durable
	StageRepl               // primary durable → follower acks resolved
	StageReply              // response flush → client observes it
	StageFwd                // repl frame on the wire → follower ack
	NumStages
)

var stageTable = [NumStages]struct {
	label    string
	from, to EventType
}{
	StageRoute: {"route", EvClientSend, EvStageEnq},
	StageQueue: {"queue", EvStageEnq, EvStageDeq},
	StageFill:  {"fill", EvStageDeq, EvStageSeal},
	StageFlush: {"flush", EvStageSeal, EvStageFlush},
	StageRepl:  {"repl", EvStageFlush, EvStageReplAck},
	StageReply: {"reply", EvStageReply, EvClientAck},
	StageFwd:   {"fwd", EvStageFwdWrite, EvStageFwdAck},
}

// String returns the stage's label.
func (s Stage) String() string { return stageTable[s].label }

// Span returns the span-event pair bounding the stage in a timeline.
func (s Stage) Span() (from, to EventType) { return stageTable[s].from, stageTable[s].to }
