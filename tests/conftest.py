import pytest

# pytest rewrites the asserts of test modules only; registering `helpers`
# keeps its guards and checks under `python -O` too.
pytest.register_assert_rewrite("helpers")
