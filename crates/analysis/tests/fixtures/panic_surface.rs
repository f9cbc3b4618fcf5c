// `panic-surface` fixture: panics in the non-test fns of a hot file.
pub fn kernel(xs: &[f32]) -> f32 {
    let _g = mega_obs::span("kernel");
    helper(xs)
}

fn helper(xs: &[f32]) -> f32 {
    assert!(!xs.is_empty(), "empty input");
    xs[0]
}

// mega-lint: allow(panic-surface, reason = "NaN sentinel: poisoned activations must abort the run")
pub fn checked(x: f32) -> f32 {
    let _g = mega_obs::span("checked");
    assert!(x.is_finite());
    x
}

fn never_called() {
    todo!()
}

fn debug_checked(x: usize) -> usize {
    debug_assert!(x > 0);
    x
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe() {
        assert_eq!(super::kernel(&[1.0]), 1.0);
    }
}
