"""The three benchmark workloads: set-up, the user's command, and its gates.

Each workload drives one `hccr` subcommand in-process. Set-up makes what the
user's command does not: the glyph file and, where the command reads models,
seeded-init model files. Every input and every weight comes from the
workload seed. A gate returns a list of error strings; empty means the
command's output was correct.
"""

import math
import re

import numpy as np

CLASSES = 10
PER_CLASS = 200
NOISE = 0.1
TOP1_BAR = 95.0             # best held-out top-1, as acceptance criterion 7
ROW_SUM_TOL = 1e-4          # float32 softmax rows over up to 3755 classes
FLOAT64_RTOL = 1e-4         # max |p32 - p64| over max p64, one full batch
ENSEMBLE_TOL = 1e-6         # library ensemble vs mean of captured members


def _probs_errors(probs):
    errors = []
    if not np.isfinite(probs).all():
        errors.append("non-finite probabilities")
    worst = float(np.abs(probs.sum(axis=1, dtype=np.float64) - 1.0).max())
    if worst > ROW_SUM_TOL:
        errors.append(f"probability row sums off by {worst:.3g}")
    return errors


class Workload:
    """One subcommand with its inputs; `hccr` holds the imported modules."""

    timed = None                # train_eval function the probe times
    item_metric = None          # the workload's own name for items_per_s
    call_metric = None          # ... and for call_ms_p*

    def __init__(self, hccr, work, seed):
        self.hccr = hccr
        self.work = work
        self.seed = seed
        self.gnt = work / "glyphs.gnt"

    def setup(self):
        pd = self.hccr["pipeline_data"]
        data = pd.synth_glyphs(CLASSES, PER_CLASS, noise=NOISE, seed=self.seed)
        pd.write_gnt(data, self.gnt)

    def keep(self, index, args, result):
        """What the probe keeps of timed call `index`, beside time and rows."""
        return None

    def check(self, command):
        """Gate of one command: exit code plus the workload's own checks."""
        if command.code != 0:
            return [f"exit code {command.code}: {command.stderr.strip()[-300:]}"]
        return self.check_output(command)

    def check_output(self, command):
        return []

    def check_once(self, command):
        """Costlier gate, run on the first command after timing ends."""
        return []

    def items(self, command):
        return sum(call.rows for call in command.calls)

    def details(self, commands):
        return {}


class TrainSmall(Workload):
    name = "train-small"
    net = "googlenet-small"
    timed = "loss_and_grads"
    item_metric = "train_samples_per_s"
    call_metric = "train_step_ms"
    epochs = 30

    def argv(self):
        return ["train", "--net", self.net, "--gnt", str(self.gnt),
                "--mode", "original", "--epochs", str(self.epochs),
                "--batch", "64", "--seed", str(self.seed)]

    def _log(self, command):
        """Held-out top-1 per epoch from the tab-separated training log."""
        rows = [line.split("\t") for line in command.stdout.splitlines()
                if re.fullmatch(r"\d+\t\S+\t\S+", line)]
        return [float(row[2]) for row in rows]

    def check_output(self, command):
        top1 = self._log(command)
        if len(top1) != self.epochs:
            return [f"{len(top1)} log rows for {self.epochs} epochs"]
        if "nan" in command.stdout:
            return ["nan in the training log"]
        if not max(top1) >= TOP1_BAR:
            return [f"best held-out top1 {max(top1)} < {TOP1_BAR}"]
        return []

    def details(self, commands):
        logs = [self._log(c) for c in commands]
        return {"val_top1_final": [log[-1] for log in logs if log],
                "val_top1_best": [max(log) for log in logs if log]}


class InferFull(Workload):
    name = "infer-full"
    timed = "forward_net"
    item_metric = "infer_images_per_s"
    call_metric = "infer_batch_ms"

    def __init__(self, hccr, work, seed):
        super().__init__(hccr, work, seed)
        self.model = work / "full.hcrm"

    def setup(self):
        super().setup()
        nb, te = self.hccr["network_builder"], self.hccr["train_eval"]
        spec = nb.build_hccr_googlenet("reference-full")
        te.save_model(spec, nb.init_weights(spec, [self.seed, 1]), self.model)

    def argv(self):
        return ["eval", "--model", str(self.model), "--gnt", str(self.gnt),
                "--mode", "original", "--split", "test", "--seed",
                str(self.seed), "--batch", "8"]

    def keep(self, index, args, result):
        if index == 0:              # weights and input for the float64 check
            return result[0], (args[0], args[1], np.array(args[2]))
        return result[0], None

    def check_output(self, command):
        if not command.calls:
            return ["no forward_net calls seen"]
        return _probs_errors(np.concatenate([c.kept[0] for c in command.calls]))

    def check_once(self, command):
        """One batch against a float64 forward of the same weights."""
        probs, (spec, params, x) = command.calls[0].kept
        forward = self.hccr["network_builder"].forward_net
        p64, _ = forward(spec, params.astype(np.float64), x.astype(np.float64))
        diff = float(np.abs(probs - p64).max() / p64.max())
        if not diff <= FLOAT64_RTOL:
            return [f"first batch differs from float64 forward by {diff:.3g} "
                    f"of its largest probability"]
        return []


class EnsembleDirectional(Workload):
    name = "ensemble-directional"
    timed = "forward_net"
    item_metric = "ensemble_images_per_s"
    call_metric = "ensemble_batch_ms"
    modes = ("original+gabor", "original+gradient", "original+hog")
    batch = 128

    def __init__(self, hccr, work, seed):
        super().__init__(hccr, work, seed)
        self.models = [work / f"member{i}.hcrm" for i in range(len(self.modes))]
        self._images = None

    def setup(self):
        super().setup()
        nb, te = self.hccr["network_builder"], self.hccr["train_eval"]
        spec = nb.build_hccr_googlenet("reference-small", class_count=CLASSES,
                                       in_channels=9)
        for i, path in enumerate(self.models):
            te.save_model(spec, nb.init_weights(spec, [self.seed, 2 + i]), path)

    def argv(self):
        argv = ["ensemble"]
        for path in self.models:
            argv += ["--model", str(path)]
        argv += ["--gnt", str(self.gnt)]
        for mode in self.modes:
            argv += ["--mode", mode]
        return argv + ["--split", "train", "--seed", str(self.seed),
                       "--batch", str(self.batch)]

    def keep(self, index, args, result):
        return result[0]

    def _passes(self, command):
        """Captured member passes, each the full [N, classes] probabilities."""
        per_pass = math.ceil(len(self.images()) / self.batch)
        calls = command.calls
        if not calls or len(calls) % per_pass:
            return None
        return [np.concatenate([c.kept for c in calls[i:i + per_pass]])
                for i in range(0, len(calls), per_pass)]

    def check_output(self, command):
        passes = self._passes(command)
        if passes is None or len(passes) < len(self.modes):
            return [f"{len(command.calls)} forward_net calls do not form "
                    f"{len(self.modes)} member passes"]
        errors = []
        for probs in passes:
            errors += _probs_errors(probs)
        last = passes[-len(self.modes):]
        for i, probs in enumerate(passes[:-len(self.modes)]):
            if not np.array_equal(probs, last[i % len(self.modes)]):
                errors.append(f"member pass {i} differs from its ensemble pass")
        return errors

    def check_once(self, command):
        """Library ensemble of one batch equals the mean of captured members."""
        passes = self._passes(command)
        te = self.hccr["train_eval"]
        members = [te.load_model(path) + (mode,)
                   for path, mode in zip(self.models, self.modes)]
        images = self.images()[:self.batch]
        want = te.ensemble_predict(members, images, batch_size=self.batch)
        total = None
        for probs in passes[-len(self.modes):]:
            part = probs[:len(images)]
            total = part if total is None else total + part
        diff = float(np.abs(want - total / len(members)).max())
        if not diff <= ENSEMBLE_TOL:
            return [f"ensemble differs from the member mean by {diff:.3g}"]
        return []

    def images(self):
        if self._images is None:
            pd, cli = self.hccr["pipeline_data"], self.hccr["cli"]
            prepared = pd.preprocess_dataset(
                pd.load_gnt(self.gnt), pd.PREPROC_PRESETS["googlenet-small"])
            train, _ = pd.shuffle_split(prepared, cli.TRAIN_FRACTION, self.seed)
            self._images = [s.image for s in train.samples]
        return self._images

    def items(self, command):
        return len(self.images())


WORKLOADS = {w.name: w for w in (TrainSmall, InferFull, EnsembleDirectional)}
