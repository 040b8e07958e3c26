package avgpipe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// facadeSurface is every exported top-level name of the package, sorted.
// A change to the public surface must change this list too, so it shows
// in review as a diff of names.
var facadeSurface = []string{
	"AFAB", "AFP", "AFPConfig", "AWD", "AnalyzeSchedule", "ApplyLR",
	"Averager", "BERT", "Batch", "ChimeraConfig", "ClassificationTask",
	"Cluster", "ConstantLR", "CosineDecay", "Dapple", "DecideAdvance",
	"DefaultMetrics", "DialMesh", "DistConfig", "Evaluate", "FaultConfig",
	"FullMesh", "GNMT", "GPipe", "Generator", "HealConfig",
	"HealSupervisor", "Health", "InferenceServer", "LRScheduler",
	"LangModelTask", "LegalAdvance", "LoadParams", "Mesh", "MeshConfig",
	"MetricsOption", "MetricsRegistry", "Module", "NewASGD", "NewAdaGrad",
	"NewAdam", "NewBiLSTM", "NewContext", "NewEASGD", "NewEmbedding",
	"NewHealSupervisor", "NewHealth", "NewInferenceServer", "NewLSTM",
	"NewLinear", "NewMetricsRegistry", "NewPipelineFromSchedule", "NewRNG",
	"NewReferenceSnapshotPublisher", "NewSGD", "NewSequential",
	"NewTCPTransport", "NewTelemetryCollector", "NewTelemetryPublisher",
	"NewTensor", "NewTracer", "NewTrainer", "OneFOneB", "Optimizer",
	"Param", "ParseReplicaPeers", "Partition", "PartitionCostAware",
	"PartitionEqualLayers", "PartitionMode", "PipeDream", "PipeDream2BW",
	"Pipeline", "PlanByName", "Predict", "Prediction", "Profile",
	"ProfileSetting", "RNG", "ReferenceSnapshotPublisher", "Reverse",
	"SaveParams", "Schedule", "ScheduleAnalysis", "Sequential",
	"ServeConfig", "ServeMetrics", "ServeResult", "SimConfig", "SimResult",
	"Simulate", "SimulateChimera", "SimulateDataParallel", "Stage",
	"StallError", "StepDecay", "Tanh", "Task", "TelemetryCollector",
	"TelemetryCollectorConfig", "TelemetryPublisher",
	"TelemetryPublisherConfig", "Tensor", "Topology", "TopologyByName",
	"Tracer", "Trainer", "TrainerConfig", "TranslationTask",
	"TraversalTune", "Tune", "TuneResult", "UpdateCodecByName", "Warmup",
	"WithHealth", "Workload",
}

// TestFacadeSurface compares the exported consts, vars, types and funcs
// declared in the package's non-test files with facadeSurface.
func TestFacadeSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, facadeSurface) {
		for _, n := range got {
			if !slices.Contains(facadeSurface, n) {
				t.Errorf("exported %s is not in facadeSurface", n)
			}
		}
		for _, n := range facadeSurface {
			if !slices.Contains(got, n) {
				t.Errorf("facadeSurface lists %s, which the package does not export", n)
			}
		}
	}
}
