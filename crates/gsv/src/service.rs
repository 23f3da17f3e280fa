//! The simulated street-view imagery service.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use nbhd_journal::{CheckpointStore, Replayable};
use nbhd_raster::RasterImage;
use nbhd_scene::{labels, render, SceneGenerator, SceneSpec};
use nbhd_types::rng::{child_seed_n, splitmix64};
use nbhd_types::{Error, Heading, ImageId, LocationId, ObjectLabel, Result};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{ImageRequest, PoisonKind, PoisonSchedule, UsageMeter};

/// Per-image fee in USD, matching the real static street-view pricing tier
/// (about $7 per 1,000 requests).
pub const FEE_PER_IMAGE_USD: f64 = 0.007;

/// Journal record kind for billed scene fees.
pub const FEE_RECORD_KIND: &str = "gsv-fee";

/// Journal payload for one billed scene, keyed `{image id}/{size}`:
/// enough to rebuild the billing key `(ImageId, size)` on resume.
#[derive(Debug, Serialize, Deserialize)]
pub struct FeeRecord {
    location: u64,
    heading: u8,
    size: u32,
}

impl FeeRecord {
    /// The billing key, `None` for a heading index past [`Heading::ALL`].
    fn billing_key(&self) -> Option<(ImageId, u32)> {
        let heading = *Heading::ALL.get(usize::from(self.heading))?;
        Some((ImageId::new(LocationId(self.location), heading), self.size))
    }
}

/// The journal key of a billed scene.
fn fee_key((image, size): (ImageId, u32)) -> String {
    format!("{image}/{size}")
}

impl Replayable for FeeRecord {
    const KIND: &'static str = FEE_RECORD_KIND;

    fn validate(&self, key: &str) -> std::result::Result<(), String> {
        let billing = self
            .billing_key()
            .ok_or_else(|| format!("heading index {} is out of range", self.heading))?;
        if fee_key(billing) != key {
            return Err(format!("the record bills {}", fee_key(billing)));
        }
        Ok(())
    }
}

/// The scenes a billing journal holds fees for: every journaled fee's
/// billing key `(ImageId, size)`, in key order. A run decodes its fees once
/// and hands each of its services the share it covers through
/// [`StreetViewService::with_billing_store`].
///
/// # Errors
///
/// Returns [`Error::Parse`] when a fee record is malformed.
pub fn journaled_scenes(store: &dyn CheckpointStore) -> Result<Vec<(ImageId, u32)>> {
    // every loaded fee validated, so each has a billing key
    let fees = nbhd_journal::load_all::<FeeRecord>(store)?;
    Ok(fees
        .iter()
        .filter_map(|(_, fee)| fee.billing_key())
        .collect())
}

/// Response status codes, after the real API's metadata statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageStatus {
    /// Imagery exists for the location.
    Ok,
    /// No imagery at this location (the simulated coverage gap).
    ZeroResults,
}

/// A successful image response: pixels plus capture metadata.
#[derive(Debug, Clone)]
pub struct ImageResponse {
    /// The rendered image.
    pub image: RasterImage,
    /// Which image this is.
    pub id: ImageId,
    /// Capture date as `(year, month)`, like the real metadata endpoint.
    pub capture_date: (u16, u8),
    /// Attribution string.
    pub copyright: String,
}

/// One billed scene as the annotator sees it: the ground-truth object
/// labels of its render, without the pixels.
///
/// The service keeps no pixels: it remembers which scenes it billed. A
/// capture labels the scene without painting it, and a later
/// [`StreetViewService::fetch`] of the same request paints it as a cache
/// hit: the survey's annotator and the detector's image provider pay a
/// single fee, and the labels are exactly those of the fetched render.
#[derive(Debug, Clone)]
pub struct Capture {
    /// Ground-truth labels of the scene's render (harness-only oracle),
    /// bit-identical to `render(spec, size).1`.
    pub objects: Vec<ObjectLabel>,
}

/// The simulated Street View service: deterministic imagery by
/// `(location, heading)`, coverage gaps, per-request fees, a daily quota,
/// and a cache of billed `(ImageId, size)` keys, not pixels: a hit bills
/// nothing and recomposes the scene, a pure function of the key. The cache
/// is FIFO by insertion (a hit does not refresh its entry), and a scene
/// evicted after 4,096 newer keys bills again on its next request.
///
/// The survey points themselves come from [`nbhd_geo`]; the service is
/// registered with them up front (the "coverage area").
///
/// # Examples
///
/// ```
/// use nbhd_geo::{County, SurveySample};
/// use nbhd_gsv::{ImageRequest, StreetViewService};
/// use nbhd_types::Heading;
///
/// let sample = SurveySample::draw(&County::study_pair(), 3, 0.5, 11)?;
/// let service = StreetViewService::new(11, sample.points());
/// let point = &sample.points()[0];
/// let req = ImageRequest::builder(point.id, Heading::North).size(64).build()?;
/// if let Ok(resp) = service.fetch(&req) {
///     assert_eq!(resp.image.size(), (64, 64));
/// }
/// assert!(service.usage().requests >= 1);
/// # Ok::<(), nbhd_types::Error>(())
/// ```
#[derive(Debug)]
pub struct StreetViewService {
    generator: SceneGenerator,
    points: HashMap<LocationId, nbhd_geo::SurveyPoint>,
    seed: u64,
    quota: Option<u64>,
    poison: Option<PoisonSchedule>,
    billing: Option<Arc<dyn CheckpointStore>>,
    prepaid: HashSet<(ImageId, u32)>,
    state: Mutex<ServiceState>,
}

#[derive(Debug, Default)]
struct ServiceState {
    usage: UsageMeter,
    cache: HashSet<(ImageId, u32)>,
    cache_order: VecDeque<(ImageId, u32)>,
    /// Every scene this service billed, in billing order.
    billed: Vec<(ImageId, u32)>,
    /// High-water mark of cached scene keys, reported by sharded runs.
    peak_resident: usize,
}

/// Maximum cached scene keys before the oldest is evicted.
const CACHE_CAP: usize = 4096;

/// The fraction of locations with no imagery.
const COVERAGE_GAP_RATE: f64 = 0.01;

impl StreetViewService {
    /// Creates a service covering the given survey points.
    ///
    /// Takes a borrowed slice so callers can register a shard-scoped view
    /// of a larger sample without materializing an owned copy first —
    /// service memory scales with the slice handed in, not the study.
    pub fn new(seed: u64, points: &[nbhd_geo::SurveyPoint]) -> Self {
        StreetViewService {
            generator: SceneGenerator::new(seed),
            points: points.iter().map(|p| (p.id, p.clone())).collect(),
            seed,
            quota: None,
            poison: None,
            billing: None,
            prepaid: HashSet::new(),
            state: Mutex::new(ServiceState::default()),
        }
    }

    /// Attaches a billing journal, making fees idempotent across process
    /// restarts.
    ///
    /// `paid` is the share of [`journaled_scenes`]`(store)` this service
    /// may request. Each of those scenes is restored into the usage meter
    /// (so reported totals span the whole run, not just this process) and
    /// marked *prepaid*: serving a prepaid scene again after a crash costs
    /// compute but never a second fee. New fees are journaled **before**
    /// the meter is charged — save-before-act — so a crash between the two
    /// leaves the journal authoritative, not the meter.
    #[must_use]
    pub fn with_billing_store(
        self,
        store: Arc<dyn CheckpointStore>,
        paid: impl IntoIterator<Item = (ImageId, u32)>,
    ) -> Self {
        let mut service = self.with_ledger(paid, 0, 0);
        service.billing = Some(store);
        service
    }

    /// Carries the books of a run's earlier services over to this one:
    /// every scene in `billed` (what [`StreetViewService::billed_scenes`]
    /// returned) is prepaid here, and `requests` and `cache_hits` add to
    /// the meter. A later request for any of those scenes is a cache hit,
    /// never a fee.
    #[must_use]
    pub fn with_ledger(
        mut self,
        billed: impl IntoIterator<Item = (ImageId, u32)>,
        requests: u64,
        cache_hits: u64,
    ) -> Self {
        for key in billed {
            self.prepay(key);
        }
        let usage = &mut self.state.get_mut().usage;
        usage.requests += requests;
        usage.cache_hits += cache_hits;
        self
    }

    /// Marks a scene prepaid. One that was not counts one billed image and
    /// adds one fee: by repeated addition, the fold order of an
    /// uninterrupted meter, so restored fee totals are byte-identical.
    fn prepay(&mut self, key: (ImageId, u32)) {
        if self.prepaid.insert(key) {
            let usage = &mut self.state.get_mut().usage;
            usage.billed_images += 1;
            usage.fees_usd += FEE_PER_IMAGE_USD;
        }
    }

    /// Sets a hard request quota (requests beyond it fail).
    #[must_use]
    pub fn with_quota(mut self, quota: u64) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Attaches a fault-injection schedule: captures at poisoned locations
    /// panic or compose corrupt scenes (failing spec validation before any
    /// fee is billed). Used by the shard supervisor's poison drills.
    #[must_use]
    pub fn with_poison(mut self, schedule: PoisonSchedule) -> Self {
        self.poison = Some(schedule);
        self
    }

    /// The attached fault-injection schedule, if any.
    pub fn poison(&self) -> Option<&PoisonSchedule> {
        self.poison.as_ref()
    }

    /// Checks imagery coverage without incurring the image fee, like the
    /// real (free) metadata endpoint.
    pub fn coverage(&self, location: LocationId) -> CoverageStatus {
        if !self.points.contains_key(&location) {
            return CoverageStatus::ZeroResults;
        }
        // a deterministic per-location coverage gap
        let h = splitmix64(child_seed_n(self.seed, "coverage", location.0));
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        if frac < COVERAGE_GAP_RATE {
            CoverageStatus::ZeroResults
        } else {
            CoverageStatus::Ok
        }
    }

    /// Fetches imagery for a request: the scene's pixels, charging the
    /// per-image fee unless the scene is already billed. The only call that
    /// rasterizes; it shares one cache entry with
    /// [`StreetViewService::capture`], so capturing then fetching a scene
    /// bills it once.
    ///
    /// # Errors
    ///
    /// * [`Error::NotFound`] when the location has no coverage.
    /// * [`Error::Service`] when the quota is exhausted.
    /// * [`Error::Parse`] when a poison schedule corrupts the scene.
    pub fn fetch(&self, request: &ImageRequest) -> Result<ImageResponse> {
        let spec = self.bill_scene(request)?;
        let (image, _) = render(&spec, request.size());
        Ok(ImageResponse {
            image,
            id: request.image_id(),
            capture_date: (2025, 1),
            copyright: "(c) nbhd synthetic imagery".to_owned(),
        })
    }

    /// Captures a scene for annotation: its ground-truth labels, charging
    /// the per-image fee unless the scene is already billed. Same requests,
    /// billing, caching and quota as [`StreetViewService::fetch`], but it
    /// paints no pixels: the labels come from the renderer's label-only
    /// pass and equal the labels of the fetched render bit for bit.
    ///
    /// Safe to call from many threads at once: the scene is composed and
    /// labeled outside the service lock, and a lost race on the *same*
    /// scene is billed as a cache hit (both are deterministic, so either
    /// result is valid).
    ///
    /// # Errors
    ///
    /// * [`Error::NotFound`] when the location has no coverage.
    /// * [`Error::Service`] when the quota is exhausted.
    /// * [`Error::Parse`] when a poison schedule corrupts the scene.
    pub fn capture(&self, request: &ImageRequest) -> Result<Capture> {
        let spec = self.bill_scene(request)?;
        Ok(Capture {
            objects: labels(&spec, request.size()),
        })
    }

    /// The one billed step behind [`StreetViewService::fetch`] and
    /// [`StreetViewService::capture`]: count the request against the
    /// quota, compose the scene (poisoned and validated) with the lock
    /// released, then bill it or count a hit under the lock. Returns the
    /// validated scene for the caller to paint or label.
    ///
    /// Poisoned locations fail before billing: a panic or a corrupt scene
    /// costs a request and retries, never a fee.
    fn bill_scene(&self, request: &ImageRequest) -> Result<SceneSpec> {
        let key = (request.image_id(), request.size());
        {
            let mut state = self.state.lock();
            if let Some(quota) = self.quota {
                if state.usage.requests >= quota {
                    return Err(Error::service("request quota exhausted"));
                }
            }
            state.usage.requests += 1;
        }
        let spec = self.validated_scene(request)?;

        let mut state = self.state.lock();
        if state.cache.contains(&key) {
            // A hit: the scene was billed before, by an earlier request or
            // by another thread while the lock was released. Bill nothing.
            state.usage.cache_hits += 1;
            return Ok(spec);
        }
        if self.prepaid.contains(&key) {
            // this scene's fee was journaled by a previous process; the
            // scene is served again (compute is free to redo) but the fee
            // is not
            state.usage.cache_hits += 1;
        } else {
            if let Some(billing) = &self.billing {
                // save-before-act: the fee record is durable before the
                // meter is charged, so a crash here never loses a fee and
                // a resumed run never double-bills
                let fee = FeeRecord {
                    location: key.0.location.0,
                    heading: key.0.heading.index() as u8,
                    size: key.1,
                };
                nbhd_journal::save(billing.as_ref(), &fee_key(key), &fee)?;
            }
            state.usage.billed_images += 1;
            state.usage.fees_usd += FEE_PER_IMAGE_USD;
            state.billed.push(key);
        }
        if state.cache_order.len() >= CACHE_CAP {
            if let Some(evict) = state.cache_order.pop_front() {
                state.cache.remove(&evict);
            }
        }
        state.cache.insert(key);
        state.cache_order.push_back(key);
        state.peak_resident = state.peak_resident.max(state.cache.len());
        Ok(spec)
    }

    /// Composes the requested scene, applies the poison schedule and
    /// validates the result: a pure function of the request, so a hit gets
    /// the scene the billed miss did.
    fn validated_scene(&self, request: &ImageRequest) -> Result<SceneSpec> {
        let location = request.location();
        let mut spec = self.ground_truth(request.image_id())?;
        let poison = self
            .poison
            .as_ref()
            .and_then(|schedule| schedule.draw(location));
        match poison {
            Some(PoisonKind::Panic) => panic!("{}", PoisonSchedule::panic_message(location)),
            Some(PoisonKind::Corrupt) => {
                nbhd_scene::corrupt_spec(&mut spec, child_seed_n(self.seed, "corrupt", location.0));
            }
            None => {}
        }
        // Defense in depth: every composed spec is validated before it can
        // reach the renderer, corrupt-injected or not.
        spec.validate()?;
        Ok(spec)
    }

    /// High-water mark of scene keys in the cache at once: how many billed
    /// scenes the service remembers, not pixels it holds (it holds none).
    /// Deterministic for a given request set (every insert is counted under
    /// the lock), so sharded runs can assert it is bounded by a shard.
    pub fn peak_resident_scenes(&self) -> usize {
        self.state.lock().peak_resident
    }

    /// The scene ground truth for an image — what a perfect annotator would
    /// see. Only the simulation harness uses this; "production" consumers
    /// see pixels only.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotFound`] for uncovered locations.
    pub fn ground_truth(&self, id: ImageId) -> Result<SceneSpec> {
        match self.points.get(&id.location) {
            Some(point) if self.coverage(id.location) == CoverageStatus::Ok => {
                Ok(self.generator.compose(point, id.heading))
            }
            _ => Err(Error::not_found(format!("no imagery at {}", id.location))),
        }
    }

    /// Snapshot of usage counters.
    pub fn usage(&self) -> UsageMeter {
        self.state.lock().usage.clone()
    }

    /// The scenes this service billed, in billing order: its fresh fees,
    /// not the prepaid scenes it served again.
    pub fn billed_scenes(&self) -> Vec<(ImageId, u32)> {
        self.state.lock().billed.clone()
    }

    /// All covered location ids (those with imagery), sorted.
    pub fn covered_locations(&self) -> Vec<LocationId> {
        let mut v: Vec<LocationId> = self
            .points
            .keys()
            .copied()
            .filter(|&l| self.coverage(l) == CoverageStatus::Ok)
            .collect();
        v.sort_unstable();
        v
    }

    /// Fetches all four headings for a location.
    ///
    /// # Errors
    ///
    /// Propagates the first fetch error.
    pub fn fetch_panorama(&self, location: LocationId, size: u32) -> Result<Vec<ImageResponse>> {
        Heading::ALL
            .iter()
            .map(|&h| {
                let req = ImageRequest::builder(location, h).size(size).build()?;
                self.fetch(&req)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_geo::{County, SurveySample};

    fn service(n: usize, seed: u64) -> (StreetViewService, Vec<LocationId>) {
        let sample = SurveySample::draw(&County::study_pair(), n, 0.5, seed).unwrap();
        let ids = sample.points().iter().map(|p| p.id).collect();
        (StreetViewService::new(seed, sample.points()), ids)
    }

    #[test]
    fn fetch_is_deterministic_and_cached() {
        let (svc, ids) = service(5, 1);
        let loc = svc.covered_locations()[0];
        let req = ImageRequest::builder(loc, Heading::South)
            .size(64)
            .build()
            .unwrap();
        let miss = svc.capture(&req).unwrap();
        // the hit relabels: the same labels as the billed miss
        let hit = svc.capture(&req).unwrap();
        assert_eq!(miss.objects, hit.objects);
        let usage = svc.usage();
        assert_eq!(usage.requests, 2);
        assert_eq!(usage.billed_images, 1, "the hit bills nothing");
        assert_eq!(usage.cache_hits, 1);
        // fetch shares the capture's cache entry, and repaints the same
        // pixels on every hit
        let a = svc.fetch(&req).unwrap();
        let b = svc.fetch(&req).unwrap();
        assert_eq!(a.image, b.image);
        let usage = svc.usage();
        assert_eq!(usage.billed_images, 1, "fetches served from cache");
        assert_eq!(usage.cache_hits, 3);
        assert!(ids.contains(&loc));
    }

    #[test]
    fn unknown_location_is_not_found() {
        let (svc, _) = service(3, 2);
        let req = ImageRequest::builder(LocationId(999_999_999), Heading::North)
            .size(64)
            .build()
            .unwrap();
        assert!(matches!(svc.fetch(&req), Err(Error::NotFound(_))));
        assert_eq!(
            svc.coverage(LocationId(999_999_999)),
            CoverageStatus::ZeroResults
        );
    }

    #[test]
    fn quota_is_enforced() {
        let (svc, _) = service(5, 3);
        let svc = StreetViewService {
            quota: Some(2),
            ..svc
        };
        let loc = svc.covered_locations()[0];
        for i in 0..3 {
            let req = ImageRequest::builder(loc, Heading::ALL[i])
                .size(32)
                .build()
                .unwrap();
            let out = svc.fetch(&req);
            if i < 2 {
                assert!(out.is_ok(), "request {i} within quota");
            } else {
                assert!(
                    matches!(out, Err(Error::Service(_))),
                    "request {i} over quota"
                );
            }
        }
    }

    #[test]
    fn fees_accumulate_per_billed_image() {
        let (svc, _) = service(4, 4);
        let loc = svc.covered_locations()[0];
        let responses = svc.fetch_panorama(loc, 32).unwrap();
        assert_eq!(responses.len(), 4);
        let usage = svc.usage();
        assert_eq!(usage.billed_images, 4);
        assert!((usage.fees_usd - 4.0 * FEE_PER_IMAGE_USD).abs() < 1e-12);
    }

    #[test]
    fn coverage_gaps_appear_at_configured_rate() {
        // 1% of 20,000 is 200 gaps, give or take 14
        let sample = SurveySample::draw(&County::study_pair(), 20_000, 10.0, 5).unwrap();
        let svc = StreetViewService::new(5, sample.points());
        let gap = 20_000 - svc.covered_locations().len();
        assert!(
            (140..=260).contains(&gap),
            "~200 of 20,000 should be gaps, got {gap}"
        );
    }

    #[test]
    fn capture_carries_the_render_labels() {
        let (svc, _) = service(3, 8);
        let loc = svc.covered_locations()[0];
        let id = ImageId::new(loc, Heading::West);
        let req = ImageRequest::builder(loc, Heading::West)
            .size(64)
            .build()
            .unwrap();
        let cap = svc.capture(&req).unwrap();
        let spec = svc.ground_truth(id).unwrap();
        let (image, objects) = nbhd_scene::render(&spec, 64);
        let bits = |labels: &[ObjectLabel]| -> Vec<[u32; 4]> {
            labels
                .iter()
                .map(|l| [l.bbox.x, l.bbox.y, l.bbox.w, l.bbox.h].map(f32::to_bits))
                .collect()
        };
        assert_eq!(cap.objects, objects);
        assert_eq!(bits(&cap.objects), bits(&objects));
        assert_eq!(svc.peak_resident_scenes(), 1, "one scene billed");
        let usage = svc.usage();
        assert_eq!((usage.billed_images, usage.cache_hits), (1, 0));
        // fetch after capture is a cache hit: one fee, and the pixels of
        // the render whose labels the capture returned
        let resp = svc.fetch(&req).unwrap();
        assert_eq!(resp.image, image);
        assert_eq!(resp.id, id);
        let usage = svc.usage();
        assert_eq!(usage.requests, 2);
        assert_eq!(usage.billed_images, 1);
        assert_eq!(usage.cache_hits, 1);
        assert!(usage.fees_usd == FEE_PER_IMAGE_USD);
    }

    #[test]
    fn concurrent_captures_bill_each_scene_once() {
        let (svc, _) = service(6, 7);
        let loc = svc.covered_locations()[0];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for &heading in Heading::ALL.iter() {
                        let req = ImageRequest::builder(loc, heading)
                            .size(32)
                            .build()
                            .unwrap();
                        svc.capture(&req).unwrap();
                    }
                });
            }
        });
        let usage = svc.usage();
        assert_eq!(usage.requests, 16);
        assert_eq!(
            usage.billed_images, 4,
            "each (location, heading) billed once"
        );
        assert_eq!(usage.cache_hits, 12);
        assert!((usage.fees_usd - 4.0 * FEE_PER_IMAGE_USD).abs() < 1e-12);
    }

    #[test]
    fn billing_is_idempotent_across_restarts() {
        use nbhd_journal::MemoryStore;
        let store = Arc::new(MemoryStore::new());

        // first "process": bill three scenes, then die
        let (svc, _) = service(5, 9);
        let svc = svc.with_billing_store(store.clone(), journaled_scenes(store.as_ref()).unwrap());
        let loc = svc.covered_locations()[0];
        let request = |heading| {
            ImageRequest::builder(loc, heading)
                .size(32)
                .build()
                .unwrap()
        };
        let billed: Vec<Capture> = Heading::ALL[..3]
            .iter()
            .map(|&heading| svc.capture(&request(heading)).unwrap())
            .collect();
        let pixels = svc.fetch(&request(Heading::ALL[0])).unwrap().image;
        let first = svc.usage();
        assert_eq!(first.billed_images, 3);
        assert_eq!(store.load_kind(FEE_RECORD_KIND).len(), 3);
        drop(svc);

        // second "process" resumes from the same journal: the three fees
        // are restored, and re-capturing those scenes bills nothing new
        let (svc, _) = service(5, 9);
        let svc = svc.with_billing_store(store.clone(), journaled_scenes(store.as_ref()).unwrap());
        let restored = svc.usage();
        assert_eq!(restored.billed_images, 3);
        assert!(
            (restored.fees_usd - first.fees_usd).abs() == 0.0,
            "byte-identical fees"
        );
        for &heading in Heading::ALL.iter() {
            svc.capture(&request(heading)).unwrap();
        }
        let usage = svc.usage();
        assert_eq!(usage.billed_images, 4, "only the fourth heading is new");
        assert_eq!(store.load_kind(FEE_RECORD_KIND).len(), 4);
        assert!((usage.fees_usd - 4.0 * FEE_PER_IMAGE_USD).abs() < 1e-12);
        // hits on a prepaid scene return the labels and pixels billed
        // before the restart, and bill nothing
        let hit = svc.capture(&request(Heading::ALL[0])).unwrap();
        assert_eq!(hit.objects, billed[0].objects);
        assert_eq!(svc.fetch(&request(Heading::ALL[0])).unwrap().image, pixels);
        assert_eq!(svc.usage().billed_images, 4);
        assert_eq!(svc.usage().cache_hits, usage.cache_hits + 2);
        assert_eq!(store.load_kind(FEE_RECORD_KIND).len(), 4);
    }

    #[test]
    fn a_ledger_carries_billed_scenes_over_as_prepaid() {
        let (first, _) = service(5, 10);
        let loc = first.covered_locations()[0];
        let request = |heading| {
            ImageRequest::builder(loc, heading)
                .size(32)
                .build()
                .unwrap()
        };
        for &heading in &Heading::ALL[..3] {
            first.capture(&request(heading)).unwrap();
        }
        first.capture(&request(Heading::ALL[0])).unwrap();
        let billed = first.billed_scenes();
        assert_eq!(billed.len(), 3, "the hit is not a billed scene");
        let usage = first.usage();

        let (next, _) = service(5, 10);
        let next = next.with_ledger(billed, usage.requests, usage.cache_hits);
        assert_eq!(next.usage(), usage, "the meter starts at the books");
        next.fetch(&request(Heading::ALL[1])).unwrap();
        next.fetch(&request(Heading::ALL[3])).unwrap();
        let after = next.usage();
        assert_eq!(after.billed_images, 4, "only the fourth heading is new");
        assert_eq!(after.cache_hits, usage.cache_hits + 1);
        assert_eq!(after.requests, usage.requests + 2);
        assert_eq!(next.billed_scenes().len(), 1);
    }

    #[test]
    fn an_evicted_scene_bills_again() {
        // enough locations that the covered ones give a request past the cap
        let (svc, _) = service(CACHE_CAP / 4 + 64, 15);
        let requests: Vec<ImageRequest> = svc
            .covered_locations()
            .into_iter()
            .flat_map(|loc| Heading::ALL.map(|h| ImageRequest::builder(loc, h).size(16).build()))
            .take(CACHE_CAP + 1)
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(requests.len(), CACHE_CAP + 1);
        for req in &requests {
            svc.capture(req).unwrap();
        }
        assert_eq!(svc.peak_resident_scenes(), CACHE_CAP);
        // the last insert evicted the first key; the second is still cached
        svc.capture(&requests[1]).unwrap();
        svc.capture(&requests[0]).unwrap();
        let usage = svc.usage();
        assert_eq!(usage.cache_hits, 1);
        assert_eq!(usage.billed_images, CACHE_CAP as u64 + 2);
    }

    #[test]
    fn poisoned_panic_fires_before_billing() {
        let (svc, _) = service(8, 12);
        let svc = svc.with_poison(PoisonSchedule::new(12).with_panic_rate(1.0));
        let loc = svc.covered_locations()[0];
        let req = ImageRequest::builder(loc, Heading::North)
            .size(32)
            .build()
            .unwrap();
        let capture = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.capture(&req)));
        assert!(capture.is_err(), "fully poisoned service must panic");
        let fetch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| svc.fetch(&req)));
        assert!(fetch.is_err(), "fully poisoned service must panic");
        let usage = svc.usage();
        assert_eq!(usage.requests, 2, "the requests were counted");
        assert_eq!(usage.billed_images, 0, "poisoned requests are never billed");
        assert_eq!(usage.cache_hits, 0);
        assert!(usage.fees_usd == 0.0);
        assert_eq!(svc.peak_resident_scenes(), 0);
    }

    #[test]
    fn corrupt_scene_fails_validation_before_billing() {
        let (svc, _) = service(8, 13);
        let svc = svc.with_poison(PoisonSchedule::new(13).with_corrupt_rate(1.0));
        let loc = svc.covered_locations()[0];
        let req = ImageRequest::builder(loc, Heading::East)
            .size(32)
            .build()
            .unwrap();
        let store = Arc::new(nbhd_journal::MemoryStore::new());
        let svc = svc.with_billing_store(store.clone(), journaled_scenes(store.as_ref()).unwrap());
        assert!(matches!(svc.capture(&req), Err(Error::Parse(_))));
        assert!(matches!(svc.fetch(&req), Err(Error::Parse(_))));
        let usage = svc.usage();
        assert_eq!(usage.requests, 2);
        assert_eq!(usage.billed_images, 0, "corrupt scenes are never billed");
        assert!(usage.fees_usd == 0.0);
        assert!(store.is_empty(), "no fee record is journaled");
    }

    #[test]
    fn unpoisoned_locations_are_unaffected_by_the_schedule() {
        let (clean, _) = service(6, 14);
        let (svc, _) = service(6, 14);
        // rate 0: schedule attached but inert — captures stay byte-identical
        let svc = svc.with_poison(PoisonSchedule::new(14));
        let loc = svc.covered_locations()[0];
        let req = ImageRequest::builder(loc, Heading::South)
            .size(32)
            .build()
            .unwrap();
        assert_eq!(
            svc.capture(&req).unwrap().objects,
            clean.capture(&req).unwrap().objects
        );
        assert_eq!(
            svc.fetch(&req).unwrap().image,
            clean.fetch(&req).unwrap().image
        );
    }

    #[test]
    fn ground_truth_matches_rendered_labels() {
        let (svc, _) = service(3, 6);
        let loc = svc.covered_locations()[0];
        let id = ImageId::new(loc, Heading::East);
        let spec = svc.ground_truth(id).unwrap();
        let req = ImageRequest::builder(loc, Heading::East)
            .size(64)
            .build()
            .unwrap();
        let resp = svc.fetch(&req).unwrap();
        let (reimage, _) = nbhd_scene::render(&spec, 64);
        assert_eq!(resp.image, reimage);
    }
}
