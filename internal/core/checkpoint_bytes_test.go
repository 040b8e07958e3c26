package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"avgpipe/internal/nn"
	"avgpipe/internal/optim"
	"avgpipe/internal/tensor"
	"avgpipe/internal/workload"
)

// checkpointBytes pins the SHA-256 of every file a checkpoint writes and
// of every optimizer's saved state. The file layout is a compatibility
// contract: a checkpoint written by an earlier build must still load, so
// a change to how state is encoded must leave these bytes as they are.
var checkpointBytes = map[string]string{
	"langmodel/meta.json":       "de1da34115c4b9053888dbba8f39c813157d986993f016833dede7ffe2089991",
	"langmodel/optim-0.bin":     "19e9d672851d25fdb70f2c4f5c8809bdffa45d9f30d7e22e51d22f07c6edb998",
	"langmodel/optim-1.bin":     "19e9d672851d25fdb70f2c4f5c8809bdffa45d9f30d7e22e51d22f07c6edb998",
	"langmodel/reference.bin":   "f65c1a6b86239f9763f6754d4dabda467046c81d64663c0f9b21ab84a09cf54c",
	"langmodel/replica-0.bin":   "10780c0b7d0045f25b78ff04bb1aa745a57e3ae45dd7154c70b9a9e50a005b6e",
	"langmodel/replica-1.bin":   "cb98c62bb3e431d409505c1a2d26fb732a7934070d1f7b8618688da170f66f3c",
	"optim/adagrad":             "1a2e828ad19d5f49c0ec046c8acb183659500403bb17874f6dba91adf05b98a4",
	"optim/adam":                "499525b1faf3aa2ee68e2b508c066836c332feb9824e5b45222f2e57a25655c0",
	"optim/asgd":                "0ae2adca20a981a5545bc82f8d9992242ddb3b6d1ae18c29f409d4b9a06f7b4c",
	"optim/easgd":               "89d91e2ac41205c5f60d2749388c89a2646c0a997121db289b00addb028318a5",
	"optim/sgd":                 "1193cef0b0dfe6bafedb339046744654ffdad06d97e03b5262b16f308813677d",
	"optim/sgd-momentum":        "25cb5bb7b9eba5a83dc5352c7a161a36851458e31400c8dee5d6df2bac0dba7e",
	"translation/meta.json":     "f2d52b8f51e00e133dc520bb38b2c6e12f4de304ab992e0d15ed61d5a6d5b801",
	"translation/optim-0.bin":   "8187dfbcb8d47423e609f97782f93af52cb932d762b448faac39bba180184938",
	"translation/optim-1.bin":   "fb4ab320c9c92a03013d6f1dcddcc176c5e909c22ca1efbbb2817f1676b4862a",
	"translation/reference.bin": "8edae740e4e87804ec95c8993e3198870fed9d00f0b58e13fe8b0012326c9f18",
	"translation/replica-0.bin": "3578a19882d744958989c3eaa29e23a696b1a8da1b09e5ab237bee8fe4f46c39",
	"translation/replica-1.bin": "5b1072332d885a5c4fae0739c44eb09e44dbda22ec6a7e9aa23d84c23d10d8f5",
}

// TestCheckpointBytesPinned writes checkpoints after a few rounds of an
// Adam task (translation, N=2) and of the SGD task (langmodel), saves
// the state of each optimizer after a few steps, and compares the
// SHA-256 of every file against checkpointBytes.
func TestCheckpointBytesPinned(t *testing.T) {
	got := map[string]string{}
	for _, task := range []*workload.Task{workload.TranslationTask(), workload.LangModelTask()} {
		tr, err := NewTrainer(TrainerConfig{Task: task, Pipelines: 2, Micro: 2, StageCount: 2,
			Seed: 5, ClipNorm: 5})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			tr.Step()
		}
		dir := t.TempDir()
		err = tr.SaveCheckpoint(dir)
		tr.Close()
		if err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			got[task.Name+"/"+f.Name()] = sha(b)
		}
	}
	momentum := optim.NewSGD(0.1)
	momentum.Momentum = 0.9
	for _, o := range []optim.Stateful{optim.NewSGD(0.1), momentum, optim.NewAdam(1e-2),
		optim.NewAdaGrad(0.1), optim.NewASGD(0.1, 2), optim.NewEASGD(0.1, 0.3)} {
		ps := []*nn.Param{
			nn.NewParam("w1", tensor.Full(0.5, 3)),
			nn.NewParam("w2", tensor.Full(-0.25, 2, 2)),
		}
		for s := 0; s < 3; s++ {
			for j, p := range ps {
				for i := range p.G.Data() {
					p.G.Data()[i] = 0.1 * float32(s+1) * float32(i+j+1)
				}
			}
			o.Step(ps)
		}
		var buf bytes.Buffer
		if err := o.SaveState(&buf, ps); err != nil {
			t.Fatal(err)
		}
		name := "optim/" + o.Name()
		if _, dup := got[name]; dup {
			name += "-momentum"
		}
		got[name] = sha(buf.Bytes())
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want := checkpointBytes[name]; got[name] != want {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(checkpointBytes) {
		t.Errorf("%d files, want %d", len(got), len(checkpointBytes))
	}
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
