//! The one datapath policy behind `Kernel::adapt` (`lac_hw::adapt_unit`),
//! held for every kernel in model calls: a raw 8-bit unit comes back
//! tabulated from one call per cell of the core's table, with the table
//! a pre-tabulated unit gets, and adapting the result again is free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lac_apps::{
    CnnApp, DftApp, FilterApp, FilterKind, FirApp, FirKind, FirStageMode, InverseK2jApp, JpegApp,
    JpegMode, Kernel, StageMode,
};
use lac_hw::{catalog, HwMetadata, LutMultiplier, Multiplier, Signedness};

/// A catalog unit that counts its model calls: `multiply`, and with it
/// the default `multiply_row`, reach `multiply_raw` once per product.
#[derive(Debug)]
struct Counting {
    inner: Arc<dyn Multiplier>,
    calls: AtomicUsize,
}

impl Counting {
    fn take(&self) -> usize {
        self.calls.swap(0, Ordering::Relaxed)
    }
}

impl Multiplier for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn bits(&self) -> u32 {
        self.inner.bits()
    }

    fn signedness(&self) -> Signedness {
        self.inner.signedness()
    }

    fn multiply_raw(&self, a: i64, b: i64) -> i64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.multiply_raw(a, b)
    }

    fn metadata(&self) -> HwMetadata {
        self.inner.metadata()
    }
}

fn check<K: Kernel>(kernel: &K) {
    let name = kernel.name();
    let fta = catalog::by_name("mul8u_FTA").unwrap();
    let core = Arc::new(Counting { inner: Arc::clone(&fta), calls: AtomicUsize::new(0) });
    let raw: Arc<dyn Multiplier> = core.clone();

    let adapted = kernel.adapt(&raw);
    let table = adapted.as_lut().unwrap_or_else(|| panic!("{name}: adapt left mul8u_FTA raw"));
    assert_eq!(core.take(), 1 << 16, "{name}: model calls to adapt the raw unit");

    let prewrapped = kernel.adapt(&LutMultiplier::maybe_wrap(fta));
    let expected = prewrapped.as_lut().expect("a pre-tabulated unit stays tabulated");
    assert_eq!(table.operand_range(), expected.operand_range(), "{name}: table range");
    assert!(table.table() == expected.table(), "{name}: table differs from the pre-wrapped one");
    assert_eq!(adapted.signedness(), prewrapped.signedness(), "{name}: signedness");

    let again = kernel.adapt(&adapted);
    assert_eq!(core.take(), 0, "{name}: adapting an adapted unit called the model");
    assert!(Arc::ptr_eq(&again, &adapted), "{name}: adapting an adapted unit rebuilt it");
}

#[test]
fn every_kernel_tabulates_a_raw_unit_once() {
    for kind in [FilterKind::GaussianBlur, FilterKind::EdgeDetection, FilterKind::Sharpening] {
        check(&FilterApp::new(kind, StageMode::Single));
    }
    check(&JpegApp::new(JpegMode::Single));
    check(&DftApp::new());
    check(&InverseK2jApp::new());
    check(&CnnApp::paper());
    for kind in [FirKind::LowPass9, FirKind::HighBoost5] {
        check(&FirApp::new(kind, FirStageMode::Single));
    }
}
