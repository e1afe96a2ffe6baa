//! Loading a trained [`SessionCheckpoint`] into an immutable, servable
//! model.
//!
//! A checkpoint written with
//! [`SessionCheckpoint::with_model`] carries its own model identity —
//! the kernel name and the `lac_hw::catalog::by_spec` multiplier spec —
//! so [`ServingModel::load`] can rebuild the full inference pipeline
//! (kernel, adapted multiplier, best-iterate coefficients) from the
//! file alone. Every way a file can fail to load is a dedicated
//! [`ServeError`] variant naming the file and the offending field, so a
//! daemon can refuse a bad checkpoint with an actionable message
//! instead of a generic failure.
//!
//! A loaded model is immutable: the `lac-serve` daemon publishes it
//! behind an `Arc` and hot-swaps checkpoints by swapping the `Arc`, so
//! in-flight batches finish on the model they started with.
//!
//! # Runtime modes
//!
//! Which multiplier a kernel *runs* with is a runtime property, not a
//! load-time constant. [`ServingModel::with_ladder`] expands a model
//! over a [`ModeLadder`]: every rung's multiplier is adapted (and so
//! tabulated, when narrow) **once** at load time into an immutable
//! per-mode kernel state, and [`ServingModel::infer_mode`] picks a
//! state per batch with no per-request setup cost. The mutable part — *which* rung is live —
//! lives outside the model in a [`ModeSelector`], a single atomic that
//! a quality governor steps and that hot-swaps carry across model
//! generations.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lac_apps::serving::{AppKernel, ServeApp, ServeSample};
use lac_data::{GrayImage, IkSample};
use lac_hw::{catalog, ModeLadder, Multiplier, Signedness};
use lac_tensor::Tensor;

use crate::engine::SessionCheckpoint;
use crate::eval::batch_outputs;

/// Why a checkpoint could not be turned into a [`ServingModel`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The file could not be read or parsed as a checkpoint.
    Checkpoint {
        /// Checkpoint file path.
        path: String,
        /// What went wrong.
        reason: String,
    },
    /// The checkpoint predates model identities: it records no
    /// kernel name / multiplier spec (see
    /// [`SessionCheckpoint::with_model`]).
    MissingModel {
        /// Checkpoint file path.
        path: String,
    },
    /// The recorded kernel name is not a servable application.
    UnknownApp {
        /// Checkpoint file path.
        path: String,
        /// The unrecognized kernel name.
        app: String,
    },
    /// The recorded kernel is a real LAC application, but one with no
    /// serving forward pass. Distinct from [`ServeError::UnknownApp`] so
    /// a daemon log points at the app's serving gap instead of
    /// suggesting the checkpoint is corrupt.
    Unservable {
        /// Checkpoint file path.
        path: String,
        /// The recognized-but-unservable kernel name.
        app: String,
    },
    /// The recorded multiplier spec no longer resolves via
    /// [`catalog::by_spec`].
    Multiplier {
        /// Checkpoint file path.
        path: String,
        /// The unresolvable spec string.
        spec: String,
        /// The catalog's own error.
        reason: String,
    },
    /// The checkpointed coefficients do not fit the kernel (wrong
    /// count or tensor shapes — e.g. a multi-stage training layout).
    Shape {
        /// Checkpoint file path.
        path: String,
        /// What did not fit.
        reason: String,
    },
    /// A mode ladder could not be applied to the model — a rung failed
    /// to resolve, or the trained spec is not one of the rungs.
    Ladder {
        /// The trained multiplier spec being placed on the ladder.
        spec: String,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Checkpoint { path, reason } => {
                write!(f, "checkpoint `{path}`: {reason}")
            }
            ServeError::MissingModel { path } => write!(
                f,
                "checkpoint `{path}` records no model identity (kernel + multiplier spec); \
                 re-save it with SessionCheckpoint::with_model or retrain with a current build"
            ),
            ServeError::UnknownApp { path, app } => write!(
                f,
                "checkpoint `{path}` names kernel `{app}`, which is not a servable application"
            ),
            ServeError::Unservable { path, app } => write!(
                f,
                "checkpoint `{path}` names kernel `{app}`, a training-only application \
                 with no serving forward pass; train a servable app or extend ServeApp"
            ),
            ServeError::Multiplier { path, spec, reason } => write!(
                f,
                "checkpoint `{path}` names multiplier spec `{spec}`, \
                 which the hardware catalog cannot resolve: {reason}"
            ),
            ServeError::Shape { path, reason } => {
                write!(f, "checkpoint `{path}` does not fit its kernel: {reason}")
            }
            ServeError::Ladder { spec, reason } => {
                write!(f, "mode ladder cannot host trained spec `{spec}`: {reason}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Kernel names that exist in `lac-apps` but have no [`ServeApp`]
/// forward pass. Checkpoints naming one of these are refused with
/// [`ServeError::Unservable`] — loading them through a `ServeApp` would
/// silently mis-adapt the coefficients onto the wrong datapath.
const TRAINING_ONLY_KERNELS: [&str; 3] = ["fir-lowpass9", "fir-highboost5", "cnn-classifier"];

/// One immutable runtime mode: a rung's multiplier, fully adapted and
/// LUT-wrapped for this model's kernel at load time.
#[derive(Debug)]
struct ModeState {
    /// Canonical catalog spec of the rung.
    spec: String,
    /// Table I area of the rung's unit.
    area: f64,
    /// The adapted multiplier list inference runs on.
    mults: Vec<Arc<dyn Multiplier>>,
}

/// Which ladder rung a served app is currently running on.
///
/// This is the *only* mutable piece of serving-mode state: models are
/// immutable per-mode kernel states, and the selector is one atomic
/// index consulted per batch. It lives outside the model (in the
/// daemon's registry slot) so a checkpoint hot-swap installs the new
/// model at the governor's current position instead of resetting to
/// rung 0. By convention, only the quality governor calls
/// [`set_mode`](Self::set_mode) (enforced by a verify.sh grep guard);
/// the registry may only [`clamp_to`](Self::clamp_to) a shorter ladder.
#[derive(Debug)]
pub struct ModeSelector {
    current: AtomicUsize,
}

impl ModeSelector {
    /// A selector starting at rung `initial`.
    pub fn new(initial: usize) -> Self {
        ModeSelector { current: AtomicUsize::new(initial) }
    }

    /// The live rung index.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::SeqCst)
    }

    /// Move to rung `mode`. Governor-only: every other component treats
    /// the selector as read-only (plus [`initialize`](Self::initialize)
    /// and [`clamp_to`](Self::clamp_to)).
    pub fn set_mode(&self, mode: usize) {
        self.current.store(mode, Ordering::SeqCst);
    }

    /// Set a *fresh* slot's starting position (a model's trained rung).
    /// Registry-only, for first installs — distinct from
    /// [`set_mode`](Self::set_mode) so tooling can verify that runtime
    /// mode *steps* only ever come from the quality governor.
    pub fn initialize(&self, mode: usize) {
        self.current.store(mode, Ordering::SeqCst);
    }

    /// Clamp the position into `0..len` (for installing a model whose
    /// ladder is shorter than the previous one). Never *raises* the
    /// position — the governor keeps sole authority over stepping.
    pub fn clamp_to(&self, len: usize) {
        let max = len.saturating_sub(1);
        // fetch_min keeps a concurrent governor step if it is smaller.
        self.current.fetch_min(max, Ordering::SeqCst);
    }
}

/// An immutable trained model, ready to answer inference requests.
///
/// Holds the kernel instance, one fully-resolved kernel state per
/// runtime mode (adapted multiplier, shared best-iterate coefficients),
/// and an always-available exact reference datapath for quality
/// replay. All state is read-only after construction, so a model can be
/// shared across worker threads behind an `Arc` and replaced
/// atomically. Models built without a ladder have exactly one mode: the
/// spec the checkpoint was trained against.
#[derive(Debug)]
pub struct ServingModel {
    app: ServeApp,
    kernel: AppKernel,
    modes: Vec<ModeState>,
    /// Rung index of the checkpoint's trained spec ([`infer`](Self::infer)
    /// runs here; a fresh selector starts here).
    trained_mode: usize,
    /// Exact datapath (same width/signedness as the trained unit) for
    /// governor replay, independent of what the ladder contains.
    reference_mults: Vec<Arc<dyn Multiplier>>,
    coeffs: Vec<Tensor>,
    ladder_fingerprint: Option<String>,
    epochs: usize,
}

fn mode_state(kernel: &AppKernel, spec: &str, unit: Arc<dyn Multiplier>) -> ModeState {
    ModeState {
        spec: spec.to_owned(),
        area: unit.metadata().area,
        mults: vec![kernel.adapt(&unit)],
    }
}

fn reference_mults(kernel: &AppKernel, like: &Arc<dyn Multiplier>) -> Vec<Arc<dyn Multiplier>> {
    let name = format!(
        "exact{}{}",
        like.bits(),
        match like.signedness() {
            Signedness::Unsigned => "u",
            Signedness::Signed => "s",
        }
    );
    let exact = catalog::by_name(&name)
        .unwrap_or_else(|| Arc::new(lac_hw::ExactMultiplier::new(like.bits(), like.signedness())));
    vec![kernel.adapt(&exact)]
}

impl ServingModel {
    /// Read a checkpoint file and build the model it describes.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let label = path.display().to_string();
        let ck = SessionCheckpoint::load(path).map_err(|e| ServeError::Checkpoint {
            path: label.clone(),
            reason: match e {
                crate::engine::TrainError::Checkpoint { reason, .. } => reason,
                other => other.to_string(),
            },
        })?;
        Self::from_checkpoint(&ck, &label)
    }

    /// Build a model from an in-memory checkpoint; `path` labels errors.
    pub fn from_checkpoint(ck: &SessionCheckpoint, path: &str) -> Result<Self, ServeError> {
        let (app_name, spec) = ck.model().ok_or_else(|| ServeError::MissingModel {
            path: path.to_owned(),
        })?;
        let app = ServeApp::parse(app_name).ok_or_else(|| {
            if TRAINING_ONLY_KERNELS.contains(&app_name) {
                ServeError::Unservable { path: path.to_owned(), app: app_name.to_owned() }
            } else {
                ServeError::UnknownApp { path: path.to_owned(), app: app_name.to_owned() }
            }
        })?;
        let kernel = app.build();
        let unit = catalog::by_spec(spec).map_err(|reason| ServeError::Multiplier {
            path: path.to_owned(),
            spec: spec.to_owned(),
            reason,
        })?;
        let reference = reference_mults(&kernel, &unit);
        let modes = vec![mode_state(&kernel, spec, unit)];

        let restored = ck.restore().map_err(|reason| ServeError::Checkpoint {
            path: path.to_owned(),
            reason,
        })?;
        let epochs = restored.history.len();
        let coeffs = restored.session.into_best();

        // The kernel dictates the coefficient layout; a checkpoint from a
        // different kernel configuration (e.g. per-stage training) must
        // be refused, not served with garbled weights.
        let expect = kernel.init_coeffs(&modes[0].mults);
        if coeffs.len() != expect.len() {
            return Err(ServeError::Shape {
                path: path.to_owned(),
                reason: format!(
                    "kernel `{app_name}` takes {} coefficient tensors, checkpoint holds {}",
                    expect.len(),
                    coeffs.len()
                ),
            });
        }
        for (i, (got, want)) in coeffs.iter().zip(&expect).enumerate() {
            if got.shape() != want.shape() {
                return Err(ServeError::Shape {
                    path: path.to_owned(),
                    reason: format!(
                        "coefficient {i} has shape {:?}, kernel `{app_name}` expects {:?}",
                        got.shape(),
                        want.shape()
                    ),
                });
            }
        }

        Ok(ServingModel {
            app,
            kernel,
            modes,
            trained_mode: 0,
            reference_mults: reference,
            coeffs,
            ladder_fingerprint: None,
            epochs,
        })
    }

    /// Build a model from a kernel's initial (untrained) coefficients.
    ///
    /// Serving quality matches the un-LAC'd baseline; useful for smoke
    /// tests and serving benchmarks, where only the datapath matters.
    pub fn untrained(app: ServeApp, spec: &str) -> Result<Self, ServeError> {
        let kernel = app.build();
        let unit = catalog::by_spec(spec).map_err(|reason| ServeError::Multiplier {
            path: "<untrained>".to_owned(),
            spec: spec.to_owned(),
            reason,
        })?;
        let reference = reference_mults(&kernel, &unit);
        let modes = vec![mode_state(&kernel, spec, unit)];
        let coeffs = kernel.init_coeffs(&modes[0].mults);
        Ok(ServingModel {
            app,
            kernel,
            modes,
            trained_mode: 0,
            reference_mults: reference,
            coeffs,
            ladder_fingerprint: None,
            epochs: 0,
        })
    }

    /// Expand this model over `ladder`: resolve every rung into an
    /// immutable kernel state sharing this model's coefficients.
    ///
    /// The trained spec must be one of the rungs (so "run as trained"
    /// is always a reachable mode); otherwise the quality the
    /// coefficients were optimized for would correspond to no rung at
    /// all.
    pub fn with_ladder(mut self, ladder: &ModeLadder) -> Result<Self, ServeError> {
        let trained_spec = self.modes[self.trained_mode].spec.clone();
        let trained_mode = ladder.position_of(&trained_spec).ok_or_else(|| {
            ServeError::Ladder {
                spec: trained_spec.clone(),
                reason: format!(
                    "spec is not a rung of ladder [{}]",
                    ladder.specs().join(", ")
                ),
            }
        })?;
        let mut modes = Vec::with_capacity(ladder.len());
        for m in 0..ladder.len() {
            let unit = ladder.unit(m).map_err(|reason| ServeError::Ladder {
                spec: ladder.spec(m).to_owned(),
                reason,
            })?;
            modes.push(mode_state(&self.kernel, ladder.spec(m), unit));
        }
        self.modes = modes;
        self.trained_mode = trained_mode;
        self.ladder_fingerprint = Some(ladder.fingerprint());
        Ok(self)
    }

    /// The application this model serves.
    pub fn app(&self) -> ServeApp {
        self.app
    }

    /// The multiplier spec the coefficients were trained against.
    pub fn mult_spec(&self) -> &str {
        &self.modes[self.trained_mode].spec
    }

    /// Completed training epochs recorded in the checkpoint.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// The served coefficient tensors (the checkpoint's best iterate).
    pub fn coeffs(&self) -> &[Tensor] {
        &self.coeffs
    }

    /// Number of runtime modes (1 unless expanded over a ladder).
    pub fn mode_count(&self) -> usize {
        self.modes.len()
    }

    /// Rung index of the trained spec (where a fresh selector starts).
    pub fn trained_mode(&self) -> usize {
        self.trained_mode
    }

    /// Canonical spec of runtime mode `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode >= mode_count()`.
    pub fn mode_spec(&self, mode: usize) -> &str {
        &self.modes[mode].spec
    }

    /// Table I area of runtime mode `mode`'s unit.
    ///
    /// # Panics
    ///
    /// Panics if `mode >= mode_count()`.
    pub fn mode_area(&self, mode: usize) -> f64 {
        self.modes[mode].area
    }

    /// Fingerprint of the ladder this model was expanded over, if any.
    pub fn ladder_fingerprint(&self) -> Option<&str> {
        self.ladder_fingerprint.as_deref()
    }

    /// Batched forward pass over decoded samples, at the trained mode.
    ///
    /// Per-sample outputs in input order, bit-identical for every
    /// `threads` value and batch split (see [`infer_mode`](Self::infer_mode)).
    pub fn infer(&self, samples: &[ServeSample], threads: usize) -> Result<Vec<Vec<f64>>, String> {
        self.infer_mode(self.trained_mode, samples, threads)
    }

    /// Batched forward pass at an explicit runtime mode.
    ///
    /// Runs [`batch_outputs`], so every output is bit-identical to its
    /// sample's own [`Kernel::infer`](lac_apps::Kernel::infer) for every
    /// `threads` value and batch split. A sample whose variant does not
    /// match the kernel's input type is an error naming its position.
    pub fn infer_mode(
        &self,
        mode: usize,
        samples: &[ServeSample],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, String> {
        let state = self
            .modes
            .get(mode)
            .ok_or_else(|| format!("mode {mode} out of range (model has {})", self.modes.len()))?;
        self.outputs(&state.mults, samples, threads)
    }

    /// Batched forward pass through the exact reference datapath (same
    /// operand width/signedness as the trained unit, error-free
    /// multiplies). The governor replays sampled batches through this
    /// to score live quality without a golden dataset.
    pub fn infer_reference(
        &self,
        samples: &[ServeSample],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, String> {
        self.outputs(&self.reference_mults, samples, threads)
    }

    /// [`batch_outputs`] on `mults`, once the samples are unwrapped into
    /// the kernel's input type.
    fn outputs(
        &self,
        mults: &[Arc<dyn Multiplier>],
        samples: &[ServeSample],
        threads: usize,
    ) -> Result<Vec<Vec<f64>>, String> {
        let coeffs = &self.coeffs;
        Ok(match &self.kernel {
            AppKernel::Filter(k) => batch_outputs(k, coeffs, mults, &images(samples)?, threads),
            AppKernel::Jpeg(k) => batch_outputs(k, coeffs, mults, &images(samples)?, threads),
            AppKernel::Dft(k) => batch_outputs(k, coeffs, mults, &images(samples)?, threads),
            AppKernel::InverseK2j(k) => {
                batch_outputs(k, coeffs, mults, &targets(samples)?, threads)
            }
        })
    }
}

/// The images of `samples`; a target is an error naming its position.
fn images(samples: &[ServeSample]) -> Result<Vec<GrayImage>, String> {
    let image = |(i, s): (usize, &ServeSample)| match s {
        ServeSample::Image(img) => Ok(img.clone()),
        ServeSample::Ik(_) => Err(format!("sample {i}: ik payload for an image kernel")),
    };
    samples.iter().enumerate().map(image).collect()
}

/// The kinematics targets of `samples`; an image is an error naming its
/// position.
fn targets(samples: &[ServeSample]) -> Result<Vec<IkSample>, String> {
    let target = |(i, s): (usize, &ServeSample)| match s {
        ServeSample::Ik(ik) => Ok(*ik),
        ServeSample::Image(_) => Err(format!("sample {i}: image payload for an ik kernel")),
    };
    samples.iter().enumerate().map(target).collect()
}

/// A point-in-time health reading of a serving daemon, carried on the
/// extended `PING` reply.
///
/// All counters are cumulative since process start. `modes` lists
/// `(app wire code, live runtime mode)` for every published model slot
/// in wire-code order, so a monitoring client can watch the quality
/// governor step ladders without a separate telemetry channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Requests currently admitted but not yet dispatched.
    pub queue_depth: u32,
    /// Requests refused with a `BUSY` frame because the queue was at
    /// its admission cap.
    pub shed: u64,
    /// Requests dropped pre-dispatch with a `DEADLINE` error because
    /// their deadline expired while queued.
    pub expired: u64,
    /// Dispatcher thread restarts performed by the panic supervisor.
    pub dispatcher_restarts: u64,
    /// Governor thread restarts performed by the panic supervisor.
    pub governor_restarts: u64,
    /// Connections condemned for reading too slowly (write buffer
    /// overflow or write timeout).
    pub slow_client_disconnects: u64,
    /// `(app wire code, live mode)` per published slot, in wire-code
    /// order.
    pub modes: Vec<(u8, u8)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::engine::TrainSession;

    fn fresh_checkpoint(app: ServeApp, spec: &str) -> SessionCheckpoint {
        let kernel = app.build();
        let unit = catalog::by_spec(spec).expect("spec resolves");
        let mults = vec![kernel.adapt(&unit)];
        let init = kernel.init_coeffs(&mults);
        let session = TrainSession::new(init, 0.5);
        SessionCheckpoint::capture(&session, 0, 0, &[]).with_model(app.kernel_name(), spec)
    }

    #[test]
    fn loads_every_servable_app() {
        for app in ServeApp::ALL {
            let ck = fresh_checkpoint(app, "mul8u_FTA");
            let model = ServingModel::from_checkpoint(&ck, "mem").expect(app.cli_id());
            assert_eq!(model.app(), app);
            assert_eq!(model.mult_spec(), "mul8u_FTA");
            assert_eq!(model.epochs(), 0);
            assert_eq!(model.mode_count(), 1);
            assert_eq!(model.trained_mode(), 0);
            assert_eq!(model.mode_area(0), 0.07);
            assert_eq!(model.ladder_fingerprint(), None);
        }
    }

    #[test]
    fn missing_model_identity_is_structured() {
        let kernel = ServeApp::Blur.build();
        let unit = catalog::by_spec("mul8u_FTA").unwrap();
        let mults = vec![kernel.adapt(&unit)];
        let session = TrainSession::new(kernel.init_coeffs(&mults), 0.5);
        let ck = SessionCheckpoint::capture(&session, 0, 0, &[]);
        match ServingModel::from_checkpoint(&ck, "old.ck.json") {
            Err(ServeError::MissingModel { path }) => assert_eq!(path, "old.ck.json"),
            other => panic!("expected MissingModel, got {other:?}"),
        }
    }

    #[test]
    fn unresolvable_spec_names_spec_and_file() {
        let ck = fresh_checkpoint(ServeApp::Blur, "mul8u_FTA");
        // Simulate a catalog that dropped the unit: rewrite the spec.
        let text = ck.to_json().replace("\"mult\":\"mul8u_FTA\"", "\"mult\":\"mul9u_GONE!flip=2\"");
        let stale = SessionCheckpoint::from_json(&text).unwrap();
        match ServingModel::from_checkpoint(&stale, "ck.json") {
            Err(ServeError::Multiplier { path, spec, reason }) => {
                assert_eq!(path, "ck.json");
                assert_eq!(spec, "mul9u_GONE!flip=2");
                assert!(reason.contains("mul9u_GONE"), "reason: {reason}");
                let shown = ServeError::Multiplier { path, spec, reason }.to_string();
                assert!(shown.contains("ck.json") && shown.contains("mul9u_GONE!flip=2"));
            }
            other => panic!("expected Multiplier error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_app_and_bad_shapes_are_refused() {
        let ck = fresh_checkpoint(ServeApp::Blur, "mul8u_FTA");
        let text = ck.to_json().replace("\"app\":\"gaussian-blur\"", "\"app\":\"hologram\"");
        let odd = SessionCheckpoint::from_json(&text).unwrap();
        match ServingModel::from_checkpoint(&odd, "ck.json") {
            Err(ServeError::UnknownApp { app, .. }) => assert_eq!(app, "hologram"),
            other => panic!("expected UnknownApp, got {other:?}"),
        }

        // A jpeg-labelled checkpoint with blur-shaped coefficients.
        let relabeled = ck.to_json().replace("\"app\":\"gaussian-blur\"", "\"app\":\"jpeg-dct\"");
        let wrong = SessionCheckpoint::from_json(&relabeled).unwrap();
        match ServingModel::from_checkpoint(&wrong, "ck.json") {
            Err(ServeError::Shape { reason, .. }) => {
                assert!(reason.contains("jpeg"), "reason: {reason}")
            }
            other => panic!("expected Shape error, got {other:?}"),
        }
    }

    #[test]
    fn training_only_kernels_are_refused_as_unservable() {
        // Real kernels with no serving forward must be refused with a
        // structured error naming the app — not silently adapted onto a
        // different app's datapath, and not lumped in with corrupt files.
        let ck = fresh_checkpoint(ServeApp::Blur, "mul8u_FTA");
        for app_name in ["cnn-classifier", "fir-lowpass9", "fir-highboost5"] {
            let text = ck
                .to_json()
                .replace("\"app\":\"gaussian-blur\"", &format!("\"app\":\"{app_name}\""));
            let relabeled = SessionCheckpoint::from_json(&text).unwrap();
            match ServingModel::from_checkpoint(&relabeled, "train-only.ck.json") {
                Err(ServeError::Unservable { path, app }) => {
                    assert_eq!(path, "train-only.ck.json");
                    assert_eq!(app, app_name);
                    let shown = ServeError::Unservable { path, app }.to_string();
                    assert!(
                        shown.contains(app_name) && shown.contains("no serving forward pass"),
                        "message names the app and the gap: {shown}"
                    );
                }
                other => panic!("expected Unservable for {app_name}, got {other:?}"),
            }
        }
    }

    #[test]
    fn load_reads_files_and_infers() {
        let dir = std::env::temp_dir().join("lac-serving-model-test");
        let path = dir.join("blur.ck.json");
        fresh_checkpoint(ServeApp::Blur, "ETM8-k4").save(&path).expect("save");
        let model = ServingModel::load(&path).expect("load");
        let img = lac_data::synth_image(32, 32, 4);
        let sample = ServeApp::Blur.decode(img.pixels()).unwrap();
        let out = model.infer(&[sample.clone(), sample], 2).expect("infer");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0].len(), ServeApp::Blur.output_len());
        let _ = std::fs::remove_dir_all(&dir);

        match ServingModel::load(Path::new("/nonexistent/m.ck.json")) {
            Err(ServeError::Checkpoint { path, .. }) => assert!(path.contains("m.ck.json")),
            other => panic!("expected Checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn fault_injected_specs_round_trip_through_serving() {
        let ck = fresh_checkpoint(ServeApp::Sharpen, "mul8u_FTA!seed=7,flip=0.01");
        let model = ServingModel::from_checkpoint(&ck, "mem").expect("faulty unit serves");
        assert_eq!(model.mult_spec(), "mul8u_FTA!seed=7,flip=0.01");
    }

    #[test]
    fn ladder_expansion_keeps_trained_spec_reachable() {
        let ladder = ModeLadder::auto("conv3x3", "mul8u_FTA").unwrap();
        let ck = fresh_checkpoint(ServeApp::Blur, "mul8u_FTA");
        let model = ServingModel::from_checkpoint(&ck, "mem")
            .unwrap()
            .with_ladder(&ladder)
            .expect("trained spec is a rung");
        assert_eq!(model.mode_count(), 5);
        assert_eq!(model.trained_mode(), 3);
        assert_eq!(model.mult_spec(), "mul8u_FTA");
        assert_eq!(model.mode_spec(0), "exact8u");
        assert_eq!(model.mode_area(0), 0.25);
        assert_eq!(model.ladder_fingerprint(), Some(ladder.fingerprint().as_str()));

        // `infer` still runs at the trained rung.
        let img = lac_data::synth_image(32, 32, 9);
        let sample = ServeApp::Blur.decode(img.pixels()).unwrap();
        let trained = model.infer(&[sample.clone()], 1).unwrap();
        let at_mode = model.infer_mode(3, &[sample.clone()], 1).unwrap();
        assert_eq!(trained, at_mode);
        // The exact rung matches the reference datapath for this ladder.
        let exact = model.infer_mode(0, &[sample.clone()], 2).unwrap();
        let reference = model.infer_reference(&[sample], 3).unwrap();
        assert_eq!(exact, reference);
        assert!(model.infer_mode(9, &[], 1).is_err(), "out-of-range mode is an error");
    }

    #[test]
    fn ladder_without_trained_spec_is_refused() {
        let ladder = ModeLadder::from_specs("conv3x3", ["exact8u", "mul8u_JV3"]).unwrap();
        let ck = fresh_checkpoint(ServeApp::Blur, "mul8u_FTA");
        let err = ServingModel::from_checkpoint(&ck, "mem")
            .unwrap()
            .with_ladder(&ladder)
            .unwrap_err();
        match &err {
            ServeError::Ladder { spec, reason } => {
                assert_eq!(spec, "mul8u_FTA");
                assert!(reason.contains("exact8u"), "reason lists rungs: {reason}");
            }
            other => panic!("expected Ladder error, got {other:?}"),
        }
        assert!(err.to_string().contains("mul8u_FTA"));
    }

    #[test]
    fn modes_differ_and_reference_is_exact() {
        let ladder =
            ModeLadder::from_specs("conv3x3", ["exact8u", "mul8u_FTA", "mul8u_JV3"]).unwrap();
        let model = ServingModel::untrained(ServeApp::Blur, "mul8u_FTA")
            .unwrap()
            .with_ladder(&ladder)
            .unwrap();
        assert_eq!(model.trained_mode(), 1);
        let img = lac_data::synth_image(32, 32, 11);
        let sample = ServeApp::Blur.decode(img.pixels()).unwrap();
        let exact = model.infer_mode(0, &[sample.clone()], 1).unwrap();
        let fta = model.infer_mode(1, &[sample.clone()], 1).unwrap();
        let jv3 = model.infer_mode(2, &[sample], 1).unwrap();
        assert_ne!(exact, jv3, "cheapest rung visibly differs from exact");
        assert_ne!(exact, fta, "trained rung visibly differs from exact");
    }

    /// `n` valid samples of `app`, each with its own payload.
    fn serve_samples(app: ServeApp, n: usize) -> Vec<ServeSample> {
        (0..n as u64)
            .map(|i| match app {
                ServeApp::InverseK2j => vec![0.4 + 0.01 * i as f64, 0.3],
                _ => lac_data::synth_image(32, 32, i).pixels().to_vec(),
            })
            .map(|payload| app.decode(&payload).unwrap())
            .collect()
    }

    /// One [`Kernel::infer`](lac_apps::Kernel::infer) call per sample, on
    /// the model's trained mode.
    fn per_sample_infer(model: &ServingModel, samples: &[ServeSample]) -> Vec<Vec<f64>> {
        use lac_apps::Kernel;
        let (coeffs, mults) = (&model.coeffs, &model.modes[model.trained_mode].mults);
        let graph = lac_tensor::Graph::new();
        samples
            .iter()
            .map(|sample| {
                let mut out = match (&model.kernel, sample) {
                    (AppKernel::Filter(k), ServeSample::Image(img)) => {
                        k.infer(&graph, std::slice::from_ref(img), coeffs, mults)
                    }
                    (AppKernel::Jpeg(k), ServeSample::Image(img)) => {
                        k.infer(&graph, std::slice::from_ref(img), coeffs, mults)
                    }
                    (AppKernel::Dft(k), ServeSample::Image(img)) => {
                        k.infer(&graph, std::slice::from_ref(img), coeffs, mults)
                    }
                    (AppKernel::InverseK2j(k), ServeSample::Ik(ik)) => {
                        k.infer(&graph, std::slice::from_ref(ik), coeffs, mults)
                    }
                    _ => panic!("{}: sample kind does not match the kernel", model.app.cli_id()),
                };
                out.pop().expect("one output per sample")
            })
            .collect()
    }

    const BATCH_SIZES: [usize; 5] = [1, 7, 8, 9, 17];

    #[test]
    fn output_lens_match_forward() {
        for app in ServeApp::ALL {
            let model = ServingModel::untrained(app, "exact16u").unwrap();
            for n in BATCH_SIZES {
                let samples = serve_samples(app, n);
                for threads in [1, 2, 3] {
                    let out = model.infer(&samples, threads).unwrap();
                    assert_eq!(out.len(), n, "{}: {n} samples", app.cli_id());
                    assert!(
                        out.iter().all(|o| o.len() == app.output_len()),
                        "{}: output length at n={n}, threads={threads}",
                        app.cli_id()
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_sample_variant_is_an_error() {
        for app in ServeApp::ALL {
            let model = ServingModel::untrained(app, "exact16u").unwrap();
            let mut samples = serve_samples(app, 9);
            // The last sample carries the other app family's payload.
            let other = match app {
                ServeApp::InverseK2j => ServeApp::Blur,
                _ => ServeApp::InverseK2j,
            };
            samples[8] = serve_samples(other, 1).remove(0);
            for threads in [1, 2] {
                let err = model.infer(&samples, threads).unwrap_err();
                assert!(err.starts_with("sample 8: "), "{}: {err}", app.cli_id());
                assert!(model.infer_reference(&samples, threads).is_err());
            }
        }
    }

    /// Every output equals its sample's own per-sample `Kernel::infer`
    /// bits, for every app, batch size (crossing `EVAL_CHUNK`) and
    /// worker count.
    #[test]
    fn batch_outputs_are_worker_count_invariant() {
        for app in ServeApp::ALL {
            let model = ServingModel::untrained(app, "mul8u_FTA").unwrap();
            let all = serve_samples(app, 17);
            let want = per_sample_infer(&model, &all);
            for n in BATCH_SIZES {
                for threads in [1, 2, 3] {
                    let got = model.infer(&all[..n], threads).unwrap();
                    assert_eq!(
                        got,
                        want[..n],
                        "{}: outputs differ at n={n}, threads={threads}",
                        app.cli_id()
                    );
                }
            }
        }
    }

    #[test]
    fn selector_steps_and_clamps() {
        let sel = ModeSelector::new(3);
        assert_eq!(sel.current(), 3);
        sel.set_mode(1);
        assert_eq!(sel.current(), 1);
        sel.clamp_to(4);
        assert_eq!(sel.current(), 1, "clamp never raises the position");
        sel.clamp_to(1);
        assert_eq!(sel.current(), 0, "single-mode ladder clamps to rung 0");
    }
}
