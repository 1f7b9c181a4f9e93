//! The benchmark's own guarantees: deterministic streams, fresh bodies,
//! the exact re-send share, a load generator bounded by the core count,
//! and answer checks that reject wrong answers.

use mc3_perfbench::check;
use mc3_perfbench::e2e::{client_count, closed_loop};
use mc3_perfbench::streams::{body, Stream, Workload, ALL, SHAPES_REPEAT_EVERY};
use mc3_server::http::{encode_response, read_request};
use std::collections::HashSet;
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

fn bodies(workload: Workload, seed: u64, n: usize) -> Vec<Vec<u8>> {
    let stream = Stream::new(workload, seed);
    (0..n).map(|i| body(&stream.dataset(i))).collect()
}

#[test]
fn same_seed_gives_byte_identical_streams() {
    for w in ALL {
        let a = bodies(w, 42, 8);
        assert_eq!(a, bodies(w, 42, 8), "{}", w.name());
        assert_ne!(a, bodies(w, 43, 8), "{}: the seed must matter", w.name());
    }
}

#[test]
fn fresh_bodies_never_repeat() {
    for (w, n) in [
        (Workload::ServePrivate, 40),
        (Workload::ServeShapes, 80),
        (Workload::SolveSynthetic, 12),
    ] {
        let stream = Stream::new(w, 7);
        let mut seen: HashSet<Vec<u8>> = w.verification_set().iter().map(body).collect();
        for i in 0..n {
            if stream.request(i).repeat_of.is_some() {
                continue;
            }
            assert!(
                seen.insert(body(&stream.dataset(i))),
                "{} request {i} repeats an earlier or warm-up body",
                w.name()
            );
        }
    }
}

#[test]
fn shapes_resends_exactly_one_request_in_four() {
    let stream = Stream::new(Workload::ServeShapes, 5);
    let n = 400;
    let mut repeats = 0;
    for i in 0..n {
        let req = stream.request(i);
        if let Some(src) = req.repeat_of {
            repeats += 1;
            assert_eq!(i % SHAPES_REPEAT_EVERY, SHAPES_REPEAT_EVERY - 1);
            assert!(src < i, "request {i} repeats a later request {src}");
            assert!(
                stream.request(src).repeat_of.is_none(),
                "repeats point at fresh bodies"
            );
            assert_eq!(body(&stream.dataset(i)), body(&stream.dataset(src)));
        }
    }
    assert_eq!(repeats * SHAPES_REPEAT_EVERY, n);
    // The other workloads never re-send.
    for w in [Workload::ServePrivate, Workload::SolveSynthetic] {
        let s = Stream::new(w, 5);
        assert!((0..n).all(|i| s.request(i).repeat_of.is_none()));
    }
}

#[test]
fn load_generator_stays_within_the_core_count() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(client_count() >= 1 && client_count() <= cores);

    // A stub server that counts connections and answers every request
    // with an empty object (which the answer check rejects).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let out = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        accepted.fetch_add(1, Ordering::SeqCst);
                        conn.set_nonblocking(false).unwrap();
                        scope.spawn(move || {
                            let mut w = conn.try_clone().unwrap();
                            let mut r = BufReader::new(conn);
                            while let Ok(Some(_)) = read_request(&mut r) {
                                let wire = encode_response(200, "application/json", b"{}");
                                if w.write_all(&wire).is_err() {
                                    break;
                                }
                            }
                        });
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        let stream = Stream::new(Workload::ServeShapes, 1);
        let out = closed_loop(addr, &stream, client_count(), 0.5);
        stop.store(true, Ordering::SeqCst);
        out
    });
    assert!(out.sent >= client_count() as u64);
    assert_eq!(out.correct, 0, "an empty answer must fail the check");
    assert_eq!(accepted.load(Ordering::SeqCst), client_count());
}

#[test]
fn answer_checks_reject_wrong_answers() {
    let ds = Stream::new(Workload::ServeShapes, 3).dataset(0);
    let report = mc3_solver::Mc3Solver::new()
        .solve_report(&ds.instance)
        .unwrap();
    let classifiers = report.solution.classifiers().to_vec();
    let cost = report.solution.cost().raw();
    assert_eq!(
        check::check(&ds.instance, classifiers.clone(), cost),
        Ok(cost)
    );
    assert!(check::check(&ds.instance, classifiers.clone(), cost + 1).is_err());
    let mut short = classifiers;
    short.pop();
    let short_cost = mc3_core::Solution::new(&ds.instance, short.clone())
        .unwrap()
        .cost()
        .raw();
    assert!(
        check::check(&ds.instance, short, short_cost).is_err(),
        "a non-cover must fail"
    );
    assert!(check::check_response(&ds.instance, 500, b"{\"error\":\"x\"}").is_err());
}
