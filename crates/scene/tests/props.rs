//! Property-based tests over the scene composer and renderer.

use nbhd_geo::{RoadClass, Zoning};
use nbhd_scene::{labels, render, scene_evidence, SceneGenerator, ViewKind};
use nbhd_types::{Heading, ImageId, IndicatorSet, LocationId};
use proptest::prelude::*;

fn arb_inputs() -> impl Strategy<Value = (u64, u64, Zoning, RoadClass, ViewKind, Heading)> {
    (
        0u64..1000,
        0u64..200,
        prop_oneof![
            Just(Zoning::Urban),
            Just(Zoning::Suburban),
            Just(Zoning::Rural)
        ],
        prop_oneof![Just(RoadClass::SingleLane), Just(RoadClass::Multilane)],
        prop_oneof![Just(ViewKind::AlongRoad), Just(ViewKind::AcrossRoad)],
        prop_oneof![
            Just(Heading::North),
            Just(Heading::East),
            Just(Heading::South),
            Just(Heading::West)
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rendered_labels_always_match_presence((seed, loc, zone, class, view, heading) in arb_inputs()) {
        let spec = SceneGenerator::new(seed).compose_raw(
            ImageId::new(LocationId(loc), heading),
            zone,
            class,
            view,
        );
        let (img, labels) = render(&spec, 96);
        prop_assert_eq!(img.size(), (96, 96));
        let labeled: IndicatorSet = labels.iter().map(|l| l.indicator).collect();
        prop_assert_eq!(labeled, spec.presence());
    }

    #[test]
    fn label_pass_matches_the_render_labels((seed, loc, zone, class, view, heading) in arb_inputs()) {
        let spec = SceneGenerator::new(seed).compose_raw(
            ImageId::new(LocationId(loc), heading),
            zone,
            class,
            view,
        );
        for size in [16, 160, 640] {
            let bits = |l: &nbhd_types::ObjectLabel| {
                (l.indicator, [l.bbox.x, l.bbox.y, l.bbox.w, l.bbox.h].map(f32::to_bits))
            };
            let painted: Vec<_> = render(&spec, size).1.iter().map(bits).collect();
            let labeled: Vec<_> = labels(&spec, size).iter().map(bits).collect();
            prop_assert_eq!(labeled, painted);
        }
    }

    #[test]
    fn boxes_are_valid_and_inside((seed, loc, zone, class, view, heading) in arb_inputs()) {
        let spec = SceneGenerator::new(seed).compose_raw(
            ImageId::new(LocationId(loc), heading),
            zone,
            class,
            view,
        );
        let (_, labels) = render(&spec, 128);
        for l in labels {
            prop_assert!(l.bbox.is_valid());
            prop_assert!(l.bbox.x >= 0.0 && l.bbox.y >= 0.0);
            prop_assert!(l.bbox.right() <= 128.0 + 1e-3);
            prop_assert!(l.bbox.bottom() <= 128.0 + 1e-3);
        }
    }

    #[test]
    fn composition_is_pure((seed, loc, zone, class, view, heading) in arb_inputs()) {
        let generator = SceneGenerator::new(seed);
        let id = ImageId::new(LocationId(loc), heading);
        let a = generator.compose_raw(id, zone, class, view);
        let b = generator.compose_raw(id, zone, class, view);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(render(&a, 64), render(&b, 64));
    }

    #[test]
    fn evidence_is_consistent_with_presence((seed, loc, zone, class, view, heading) in arb_inputs()) {
        let spec = SceneGenerator::new(seed).compose_raw(
            ImageId::new(LocationId(loc), heading),
            zone,
            class,
            view,
        );
        let presence = spec.presence();
        for (ind, e) in scene_evidence(&spec).iter() {
            prop_assert!((0.0..=1.0).contains(&e.visibility));
            prop_assert!((0.0..=1.0).contains(&e.distractor));
            if presence.contains(ind) {
                prop_assert!(e.visibility > 0.0, "{ind} present but invisible");
                prop_assert_eq!(e.distractor, 0.0);
            } else {
                prop_assert_eq!(e.visibility, 0.0);
            }
        }
    }

    #[test]
    fn spec_serde_round_trips((seed, loc, zone, class, view, heading) in arb_inputs()) {
        let spec = SceneGenerator::new(seed).compose_raw(
            ImageId::new(LocationId(loc), heading),
            zone,
            class,
            view,
        );
        let json = serde_json::to_string(&spec).unwrap();
        let back: nbhd_scene::SceneSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(spec, back);
    }
}
