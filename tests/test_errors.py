"""The package's exception classes: each is one the package can raise."""

import re
from pathlib import Path

import rclab
from rclab import errors


def test_every_error_class_is_raised_in_the_package():
    # a class counts when the source raises it or one of its subclasses by name
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in Path(rclab.__file__).parent.glob("*.py"))
    raised = [getattr(errors, name) for name in set(re.findall(r"\braise\s+(\w+)", source))
              if isinstance(getattr(errors, name, None), type)]
    classes = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and cls.__module__ == errors.__name__]
    assert [cls.__name__ for cls in classes
            if not any(issubclass(r, cls) for r in raised)] == []
