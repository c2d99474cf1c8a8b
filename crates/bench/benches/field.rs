//! Field/point micro-benchmarks used to tune the verification engine.

use criterion::{criterion_group, criterion_main, Criterion};
use fides_crypto::field::FieldElement;
use fides_crypto::point::Point;
use fides_crypto::scalar::Scalar;

fn bench_field(c: &mut Criterion) {
    let a = FieldElement::from_be_bytes(&{
        let mut b = [0x5Au8; 32];
        b[0] = 0;
        b
    })
    .unwrap();
    let b = FieldElement::from_be_bytes(&{
        let mut b = [0xC3u8; 32];
        b[0] = 0;
        b
    })
    .unwrap();

    let mut group = c.benchmark_group("field");
    group.bench_function("mul", |bch| {
        let mut x = a;
        bch.iter(|| {
            x = x * b;
            x
        })
    });
    group.bench_function("square", |bch| {
        let mut x = a;
        bch.iter(|| {
            x = x.square();
            x
        })
    });
    group.bench_function("add", |bch| {
        let mut x = a;
        bch.iter(|| {
            x = x + b;
            x
        })
    });
    // The shipping safegcd divstep inversion vs the kept Fermat-ladder
    // reference. CI requires `invert`'s median to be more than 1.2x
    // faster than `invert_fermat`'s.
    group.bench_function("invert", |bch| {
        let mut x = a;
        bch.iter(|| {
            x = x.invert().expect("nonzero");
            x
        })
    });
    group.bench_function("invert_fermat", |bch| {
        let mut x = a;
        bch.iter(|| {
            x = x.invert_fermat().expect("nonzero");
            x
        })
    });
    group.finish();
}

fn bench_point(c: &mut Criterion) {
    let g = Point::generator();
    let p = g * Scalar::from_u64(12345);
    let q = g * Scalar::from_u64(99999);

    let mut group = c.benchmark_group("point");
    group.bench_function("double", |bch| {
        let mut x = p;
        bch.iter(|| {
            x = x.double();
            x
        })
    });
    group.bench_function("add", |bch| {
        let mut x = p;
        bch.iter(|| {
            x = x + q;
            x
        })
    });
    group.bench_function("mul_scalar", |bch| {
        let k = Scalar::from_be_bytes_reduced(&[0xA7u8; 32]);
        bch.iter(|| p.mul_scalar(&k))
    });
    group.bench_function("mul_generator", |bch| {
        let k = Scalar::from_be_bytes_reduced(&[0xA7u8; 32]);
        bch.iter(|| Point::mul_generator(&k))
    });
    group.finish();
}

criterion_group!(benches, bench_field, bench_point);
criterion_main!(benches);
