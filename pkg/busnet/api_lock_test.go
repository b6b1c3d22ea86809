package busnet

// Compile-time lock on the public entry points: changing any of these
// signatures breaks this file first, which is the point — a change to
// the public surface has to be deliberate.
var (
	_ func(*Network) Config                     = (*Network).Config
	_ func(Config) (*Network, error)            = FromConfig
	_ func(...Option) (*Network, error)         = New
	_ func(Config, Backend) (Evaluation, error) = Evaluate
	_ func(Config) Topology                     = Config.Topology
	_ func(string) (ArbiterKind, error)         = ParseArbiter
	_ func(string) (Backend, error)             = ParseBackend
	_ func(string) (string, error)              = ParseMode
	_ func(string) (TrafficKind, error)         = ParseTrafficKind
	_ func(string) (ServiceKind, error)         = ParseServiceKind

	_ func(Topology, Backend) (TopologyEvaluation, error) = EvaluateTopology
	_ func(Topology) (TopologyPrediction, error)          = PredictTopology
)
