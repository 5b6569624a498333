package obs

// Tally is the per-run outcome record: one counter per event a
// trajectory produces. Each field is written at exactly one kind of site
// per event, by the layer that owns the event (the core simulator or a
// recovery engine), and nowhere else. The core simulator embeds the
// record in its RunResult and derives both the Monte Carlo fold and the
// horizon export into a metrics Registry from one outcome table, so no
// counter is ever mirrored.
type Tally struct {
	// LostGroups counts groups that lost data.
	LostGroups int
	// DiskFailures counts drive deaths (including spares and batch
	// drives).
	DiskFailures int
	// BlocksRebuilt counts completed block reconstructions.
	BlocksRebuilt int
	// DroppedRebuilds counts rebuilds abandoned because the group lost
	// data, every source was exhausted, or no target could be found.
	DroppedRebuilds int
	// Redirections counts recovery-target failures mid-rebuild.
	Redirections int
	// SparesUsed counts dedicated spares (traditional engine only).
	SparesUsed int
	// BatchesAdded counts replacement batches injected; DisksAdded counts
	// the drives they brought; MigratedBytes counts bytes moved to
	// rebalance onto new batches and growth drives.
	BatchesAdded  int
	DisksAdded    int
	MigratedBytes int64
	// PredictedFailures counts failures flagged in advance by the
	// S.M.A.R.T. monitor; DrainedBlocks counts blocks moved off suspect
	// drives before they died.
	PredictedFailures int
	DrainedBlocks     int
	// Fault-injection accounting (zero unless faults are enabled).
	// LSEInjected counts latent sector errors that arrived; LSEDetected
	// counts those discovered by rebuild reads; ScrubFound counts those
	// discovered (and queued for repair) by the scrubber. Undiscovered
	// errors either die with their disk or silently ride to the horizon.
	LSEInjected int
	LSEDetected int
	ScrubFound  int
	// RebuildRetries counts backed-off re-attempts after transient
	// source-read faults; TransientFaults counts the faults themselves;
	// Resourcings counts rebuilds that switched source.
	RebuildRetries  int
	TransientFaults int
	Resourcings     int
	// Bursts counts correlated-failure bursts; BurstKills counts the
	// drive deaths they injected (some may coincide with natural deaths).
	Bursts     int
	BurstKills int
	// QueuedSpareJobs counts recovery jobs that waited for an exhausted
	// spare pool (traditional engine with a finite pool).
	QueuedSpareJobs int
	// Fail-slow and straggler-mitigation accounting (zero unless
	// fail-slow injection / the straggler policy are enabled).
	// FailSlowOnsets counts drives that degraded; FailSlowRecoveries
	// counts spontaneous recoveries; SlowBursts counts correlated
	// slow-bursts.
	FailSlowOnsets     int
	FailSlowRecoveries int
	SlowBursts         int
	// SlowFlagged counts detector flag transitions; SlowEvicted counts
	// drives the detector condemned; Hedges/HedgeWins count duplicate
	// transfers launched and won; RebuildTimeouts counts hard-aborted
	// attempts.
	SlowFlagged     int
	SlowEvicted     int
	Hedges          int
	HedgeWins       int
	RebuildTimeouts int
	// Network-fault accounting (zero unless a topology and network
	// faults are enabled). SwitchFails counts ToR-switch deaths;
	// RackPowerEvents and Partitions count the transient rack outages;
	// PartitionHeals counts racks that came back. FalseDeadRacks counts
	// dark racks the false-dead timer declared lost, and FalseDeadDisks
	// the (healthy) drives written off with them.
	SwitchFails     int
	RackPowerEvents int
	Partitions      int
	PartitionHeals  int
	FalseDeadRacks  int
	FalseDeadDisks  int
	// ParkedTransfers counts rebuilds parked against a dark rack instead
	// of abandoned; CrossRackTransfers/CrossRackBytes tally completed
	// transfers that crossed the rack fabric.
	ParkedTransfers    int
	CrossRackTransfers int
	CrossRackBytes     int64
	// Foreground-coexistence accounting (zero unless demand is
	// enabled). DemandBursts counts burst episodes that began within the
	// horizon; DegradedReads counts user reads served by reconstruction
	// during a window of vulnerability; ThrottleSteps counts
	// recovery-rate changes the QoS policy made.
	DemandBursts  int
	DegradedReads int
	ThrottleSteps int
	// Maintenance accounting (zero unless maintenance schedules
	// anything). PlannedDrains counts drives sent through the proactive
	// drain exit; UpgradeWindows counts rolling-upgrade rack windows;
	// FencedParks counts rebuilds parked against a write-fenced target;
	// GrowthBatches/GrowthDisksAdded tally scheduled capacity growth.
	PlannedDrains    int
	UpgradeWindows   int
	FencedParks      int
	GrowthBatches    int
	GrowthDisksAdded int
}
