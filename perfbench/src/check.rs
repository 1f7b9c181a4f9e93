//! Independent answer checking.
//!
//! Every answer, in-process or served, is rebuilt into a
//! `mc3_core::Solution` against the instance the benchmark generated,
//! verified as a cover, and its recomputed cost compared with the cost the
//! system reported. Nothing the system under test says is trusted.

use mc3_core::json::Json;
use mc3_core::{Classifier, Instance, PropSet, Solution};

/// Checks one answer; returns the recomputed cost.
pub fn check(
    instance: &Instance,
    classifiers: Vec<Classifier>,
    reported_cost: u64,
) -> Result<u64, String> {
    let solution = Solution::new(instance, classifiers).map_err(|e| format!("rebuild: {e}"))?;
    solution
        .verify(instance)
        .map_err(|e| format!("verify: {e}"))?;
    let cost = solution.cost().raw();
    if cost != reported_cost {
        return Err(format!("reported cost {reported_cost}, recomputed {cost}"));
    }
    Ok(cost)
}

/// Checks a solution the solver returned in this process; returns the
/// recomputed cost.
pub fn check_solution(instance: &Instance, solution: &Solution) -> Result<u64, String> {
    check(
        instance,
        solution.classifiers().to_vec(),
        solution.cost().raw(),
    )
}

/// Checks a `POST /solve` response body against the instance that was
/// sent; returns the recomputed cost.
pub fn check_response(instance: &Instance, status: u16, body: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|e| format!("response not UTF-8: {e}"))?;
    if status != 200 {
        return Err(format!("status {status}: {}", text.trim()));
    }
    let doc = mc3_core::json::parse(text).map_err(|e| format!("response JSON: {e}"))?;
    let reported = doc
        .get("cost")
        .and_then(Json::as_u64)
        .ok_or("response has no integer 'cost'")?;
    let queries = doc.get("queries").and_then(Json::as_usize);
    if queries != Some(instance.num_queries()) {
        return Err(format!(
            "response answers {queries:?} queries, {} were sent",
            instance.num_queries()
        ));
    }
    let raw = doc
        .get("classifiers")
        .and_then(Json::as_array)
        .ok_or("response has no 'classifiers' array")?;
    let mut classifiers = Vec::with_capacity(raw.len());
    for c in raw {
        let ids = c
            .as_array()
            .ok_or("classifier is not an id array")?
            .iter()
            .map(|p| p.as_u32().ok_or("property id is not a u32"))
            .collect::<Result<Vec<u32>, _>>()?;
        classifiers.push(PropSet::from_ids(ids));
    }
    check(instance, classifiers, reported)
}
